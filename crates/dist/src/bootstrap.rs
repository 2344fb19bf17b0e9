//! Out-of-process rendezvous for a multi-process cluster.
//!
//! Rank 0 (the *coordinator*) listens on a configurable address. Every
//! other rank (a *follower*) connects, sends a `JOIN` frame carrying its
//! rank and its freshly-bound data-plane address, and blocks until the
//! coordinator answers with the full `PEERS` table. Once every rank holds
//! the same table, each builds its [`pc_bsp::Tcp::mesh`] endpoint and the
//! data plane takes over; the control connection stays open for partition
//! shipping (`PLAN` frames, see [`crate::ship`]).
//!
//! ```text
//! follower r:  JOIN{rank, data_addr}  ─────▶  coordinator (rank 0)
//! follower r:  ◀─────  PEERS{addr_0 .. addr_{M-1}}
//! follower r:  ◀─────  PLAN{owner table + CSR slice(s) of rank r}
//! follower r:  ◀─────  CTRL{epoch, standby, every plan but r's}   (failover
//!                                          armed; plans only to the standby)
//! ```
//!
//! The bootstrap and every recovery epoch collect ranks the same way
//! ([`Coordinator::recover`]'s `RECOVER`/re-`JOIN` exchange, then the
//! listener): the bootstrap is epoch 0 with every control link dead, so
//! every rank arrives through the listener. Which frames follow the
//! table, and when, is [`crate::session`]'s business.
//!
//! Every frame rides the transport's `tag + len` wire format
//! ([`pc_bsp::tcp::write_frame`]); every blocking call polls against an
//! explicit deadline and fails with a typed [`TransportError`] — a rank
//! that never shows up is an error, not a hang.

use crate::backoff::Backoff;
use pc_bsp::tcp::{configure_stream, read_frame_into, write_frame, write_frame_parts};
use pc_bsp::{Codec, Reader, TransportError};
use std::borrow::Cow;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Control frame: a follower announces `{rank, data_addr, flags, epoch}`.
pub const TAG_JOIN: u8 = b'J';
/// Control frame: the coordinator's peer-address table (plus the
/// recovery epoch it belongs to; 0 for the initial bootstrap).
pub const TAG_PEERS: u8 = b'P';
/// Control frame: a rank's shipped partition (owner table + CSR slices).
pub const TAG_PLAN: u8 = b'G';
/// Control frame: run settings the coordinator decides for every rank.
pub const TAG_SETTINGS: u8 = b'S';
/// Control frame: the coordinator starts recovery epoch `{epoch}` after a
/// data-plane failure (payload also names the acting coordinator's
/// rendezvous address, so a rank can tell who is running the recovery);
/// every surviving rank re-binds a fresh data-plane listener and answers
/// with a new `JOIN`.
pub const TAG_RECOVER: u8 = b'R';
/// Control frame: replicated control-plane state (`CTRL`) — the recovery
/// epoch, the designated standby rank, and (for the standby itself) every
/// rank's encoded plan. Only sent when coordinator failover is armed.
pub const TAG_CTRL: u8 = b'C';

/// `JOIN` flag: this rank holds no graph partition and needs its `PLAN`
/// (re-)shipped — set by every initial join and by respawned ranks, clear
/// on a surviving rank's recovery re-join.
pub const JOIN_NEEDS_PLAN: u8 = 1;

/// Timeouts of the rendezvous and the control-plane I/O.
#[derive(Debug, Clone, Copy)]
pub struct BootstrapOptions {
    /// How long ranks may take to appear (covers slow process spawns).
    pub connect_timeout: Duration,
    /// Deadline for any single control-plane frame. Plan frames carry
    /// whole CSR slices, so this is generous.
    pub io_timeout: Duration,
    /// Recovery mode: a follower dying *during* the rendezvous is
    /// tolerated instead of failing the bootstrap — a broken joiner
    /// stream is dropped (its respawned process re-joins), a duplicate
    /// `JOIN` replaces the dead link, and a failed `PEERS` write marks
    /// the link dead for the recovery rendezvous to repair. Off (the
    /// fail-fast default) unless checkpoint-based recovery is armed.
    pub tolerate_lost: bool,
}

impl Default for BootstrapOptions {
    fn default() -> Self {
        BootstrapOptions {
            connect_timeout: Duration::from_secs(10),
            io_timeout: Duration::from_secs(60),
            tolerate_lost: false,
        }
    }
}

fn encode_addr(addr: &SocketAddr, buf: &mut Vec<u8>) {
    let s = addr.to_string();
    (s.len() as u32).encode(buf);
    buf.extend_from_slice(s.as_bytes());
}

fn decode_addr(r: &mut Reader<'_>, peer: usize) -> Result<SocketAddr, TransportError> {
    let protocol = |detail: String| TransportError::Protocol { peer, detail };
    let len: u32 = if r.remaining() >= 4 {
        r.get()
    } else {
        return Err(protocol("truncated address length".to_string()));
    };
    if r.remaining() < len as usize {
        return Err(protocol(format!(
            "address of {len} bytes but only {} left",
            r.remaining()
        )));
    }
    let s = std::str::from_utf8(r.take(len as usize))
        .map_err(|e| protocol(format!("address is not utf-8: {e}")))?;
    s.parse()
        .map_err(|e| protocol(format!("unparsable address '{s}': {e}")))
}

fn io_err(peer: usize, during: &'static str, e: std::io::Error) -> TransportError {
    TransportError::Io {
        peer,
        kind: e.kind(),
        during,
    }
}

/// One parsed `JOIN` frame.
#[derive(Debug, Clone, Copy)]
struct Join {
    rank: usize,
    addr: SocketAddr,
    flags: u8,
    epoch: u32,
}

fn encode_join(rank: usize, addr: &SocketAddr, flags: u8, epoch: u32) -> Vec<u8> {
    let mut buf = Vec::new();
    (rank as u32).encode(&mut buf);
    encode_addr(addr, &mut buf);
    flags.encode(&mut buf);
    epoch.encode(&mut buf);
    buf
}

fn decode_join(payload: &[u8], peer: usize) -> Result<Join, TransportError> {
    let mut r = Reader::new(payload);
    if r.remaining() < 4 {
        return Err(TransportError::Protocol {
            peer,
            detail: "JOIN too short".to_string(),
        });
    }
    let rank = r.get::<u32>() as usize;
    let addr = decode_addr(&mut r, rank)?;
    if r.remaining() < 5 {
        return Err(TransportError::Protocol {
            peer: rank,
            detail: "JOIN missing flags/epoch".to_string(),
        });
    }
    Ok(Join {
        rank,
        addr,
        flags: r.get(),
        epoch: r.get(),
    })
}

/// Encode the `RECOVER` notice: the recovery epoch and the acting
/// coordinator's rendezvous address.
fn encode_recover(epoch: u32, coordinator: &SocketAddr) -> Vec<u8> {
    let mut buf = Vec::new();
    epoch.encode(&mut buf);
    encode_addr(coordinator, &mut buf);
    buf
}

/// The epoch a `RECOVER` notice opens. The address it also names is, on a
/// live control link, by construction the peer the frame arrived from, so
/// it is checked but not returned (respawned ranks learn it from the
/// advertisement instead).
fn decode_recover(payload: &[u8]) -> Result<u32, TransportError> {
    let mut r = Reader::new(payload);
    if r.remaining() < 4 {
        return Err(TransportError::Protocol {
            peer: 0,
            detail: "RECOVER too short".to_string(),
        });
    }
    let epoch = r.get();
    decode_addr(&mut r, 0)?;
    Ok(epoch)
}

/// Encode the `PEERS` table: rank count, one address per rank, and the
/// recovery epoch the table belongs to (0 = initial bootstrap).
fn encode_peers(peers: &[SocketAddr], epoch: u32) -> Vec<u8> {
    let mut table = Vec::new();
    (peers.len() as u32).encode(&mut table);
    for addr in peers {
        encode_addr(addr, &mut table);
    }
    epoch.encode(&mut table);
    table
}

fn decode_peers(payload: &[u8], rank: usize) -> Result<(Vec<SocketAddr>, u32), TransportError> {
    let mut r = Reader::new(payload);
    if r.remaining() < 4 {
        return Err(TransportError::Protocol {
            peer: 0,
            detail: "PEERS too short".to_string(),
        });
    }
    let ranks = r.get::<u32>() as usize;
    // Every address takes at least its 4-byte length.
    if ranks > r.remaining() / 4 {
        return Err(TransportError::Protocol {
            peer: 0,
            detail: format!(
                "PEERS names {ranks} ranks but only {} bytes follow",
                r.remaining()
            ),
        });
    }
    if rank >= ranks {
        return Err(TransportError::Protocol {
            peer: 0,
            detail: format!("peer table has {ranks} ranks but we are rank {rank}"),
        });
    }
    let mut peers = Vec::with_capacity(ranks);
    for p in 0..ranks {
        peers.push(decode_addr(&mut r, p)?);
    }
    if r.remaining() < 4 {
        return Err(TransportError::Protocol {
            peer: 0,
            detail: "PEERS missing epoch".to_string(),
        });
    }
    Ok((peers, r.get()))
}

/// The control-plane configuration a `CTRL` frame distributes: which
/// recovery epoch it belongs to, which rank is the designated standby,
/// and — on the frame sent to the standby itself — every rank's encoded
/// partition plan (the replica a takeover re-ships from).
///
/// On the wire the standby's frame leaves out the standby's *own* plan
/// whenever the standby was shipped it as `PLAN` in the same rendezvous
/// (the initial bootstrap, or a recovery re-ship to a respawned rank): its
/// length is the `OMITTED` marker (`u64::MAX`, so an empty plan stays
/// distinct) and no bytes follow. The receiver puts the `PLAN` bytes it
/// just decoded back in that slot ([`Follower::recv_ctrl`]), so a decoded
/// state always holds every plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CtrlState {
    /// Recovery epoch this configuration was published at.
    pub epoch: u32,
    /// Rank designated as standby coordinator.
    pub standby: u32,
    /// Every rank's encoded plan; `Some` only on the standby's frame.
    pub plans: Option<Vec<Vec<u8>>>,
}

/// The length a `CTRL` frame gives a plan it omits because the receiver
/// already holds it — distinct from `0`, a plan that is empty.
pub(crate) const OMITTED: u64 = u64::MAX;

/// Encode a `CTRL` frame payload — what [`decode_ctrl`] turns back into
/// a [`CtrlState`] — as the consecutive parts
/// [`pc_bsp::tcp::write_frame_parts`] streams: small owned parts (the
/// header, each plan's length) between the plans themselves, borrowed, so
/// the coordinator never copies the encoded plans it keeps for re-shipping
/// into a frame. Plan `omit`, when given, goes out as the [`OMITTED`]
/// marker with no bytes.
pub(crate) fn encode_ctrl<'a>(
    epoch: u32,
    standby: u32,
    plans: Option<&'a [Vec<u8>]>,
    omit: Option<usize>,
) -> Vec<Cow<'a, [u8]>> {
    let mut parts = Vec::new();
    let mut small = Vec::new();
    epoch.encode(&mut small);
    standby.encode(&mut small);
    plans.is_some().encode(&mut small);
    if let Some(plans) = plans {
        (plans.len() as u32).encode(&mut small);
        for (rank, plan) in plans.iter().enumerate() {
            if omit == Some(rank) {
                OMITTED.encode(&mut small);
                continue;
            }
            (plan.len() as u64).encode(&mut small);
            parts.push(Cow::Owned(std::mem::take(&mut small)));
            parts.push(Cow::Borrowed(plan.as_slice()));
        }
    }
    if !small.is_empty() {
        parts.push(Cow::Owned(small));
    }
    parts
}

/// Decode a `CTRL` frame payload. `shipped` is the plan the receiving
/// rank was sent as `PLAN` in the rendezvous this frame follows, keyed by
/// that rank: an [`OMITTED`] plan is filled from it, and is a protocol
/// error at any other index or when nothing was shipped. Unused, it is
/// dropped. Every count and length is checked against the bytes left
/// before anything is allocated.
pub(crate) fn decode_ctrl(
    payload: &[u8],
    peer: usize,
    shipped: Option<(usize, Vec<u8>)>,
) -> Result<CtrlState, TransportError> {
    let protocol = |detail: String| TransportError::Protocol { peer, detail };
    let mut r = Reader::new(payload);
    if r.remaining() < 9 {
        return Err(protocol("CTRL too short".to_string()));
    }
    let epoch: u32 = r.get();
    let standby: u32 = r.get();
    let has_plans: bool = r.get();
    let plans = if has_plans {
        if r.remaining() < 4 {
            return Err(protocol("CTRL plan count truncated".to_string()));
        }
        let count = r.get::<u32>() as usize;
        // Every plan takes at least its 8-byte length.
        if count > r.remaining() / 8 {
            return Err(protocol(format!(
                "CTRL names {count} plans but only {} bytes follow",
                r.remaining()
            )));
        }
        let mut shipped = shipped;
        let mut plans = Vec::with_capacity(count);
        for i in 0..count {
            if r.remaining() < 8 {
                return Err(protocol(format!("CTRL plan {i} length truncated")));
            }
            let len: u64 = r.get();
            if len == OMITTED {
                match shipped.take() {
                    Some((rank, plan)) if rank == i => plans.push(plan),
                    _ => {
                        return Err(protocol(format!(
                            "CTRL omits plan {i}, which this rank was not shipped"
                        )))
                    }
                }
                continue;
            }
            if (r.remaining() as u64) < len {
                return Err(protocol(format!(
                    "CTRL plan {i} of {len} bytes but only {} left",
                    r.remaining()
                )));
            }
            plans.push(r.take(len as usize).to_vec());
        }
        Some(plans)
    } else {
        None
    };
    if !r.is_empty() {
        return Err(protocol(format!("{} trailing CTRL bytes", r.remaining())));
    }
    Ok(CtrlState {
        epoch,
        standby,
        plans,
    })
}

/// The coordinator's side of the rendezvous: accepts every follower,
/// collects the data-plane peer table, broadcasts it, and keeps one
/// control stream per follower for partition shipping. Normally rank 0;
/// after a failover, the elected standby (see [`Coordinator::takeover`]).
#[derive(Debug)]
pub struct Coordinator {
    ranks: usize,
    /// Which rank this coordinator is (0 at bootstrap; the elected
    /// standby after a takeover).
    self_rank: usize,
    /// Control stream per follower (`None` at our own index).
    links: Vec<Option<TcpStream>>,
    peers: Vec<SocketAddr>,
    opts: BootstrapOptions,
    /// The rendezvous listener, kept open for the whole run so respawned
    /// ranks can re-join during recovery.
    listener: TcpListener,
    /// Current recovery epoch (0 = the initial bootstrap generation).
    epoch: u32,
}

impl Coordinator {
    /// Bind `bind_addr`, accept `ranks - 1` followers, exchange the peer
    /// table. `data_addr` is rank 0's own (already bound) data-plane
    /// address, published as `peers[0]`. This is rank 0 "taking over" an
    /// empty cluster at epoch 0 ([`Coordinator::takeover`]), every rank
    /// then arriving through the listener ([`Coordinator::admit`]) under
    /// the connect deadline.
    pub fn rendezvous(
        bind_addr: SocketAddr,
        ranks: usize,
        data_addr: SocketAddr,
        opts: BootstrapOptions,
    ) -> Result<Self, TransportError> {
        assert!(ranks >= 1, "a cluster needs at least one rank");
        let mut coordinator = Coordinator::takeover(bind_addr, ranks, 0, 0, opts)?;
        coordinator.admit(data_addr)?;
        Ok(coordinator)
    }

    /// A standby rank **takes over** as coordinator after rank-0 (or a
    /// previous acting coordinator's) death: bind a fresh rendezvous
    /// listener, adopt the cluster shape at recovery epoch `epoch`, and
    /// return with *no* live control links — the next
    /// [`Coordinator::recover`] call collects every rank (survivors and
    /// respawns alike) through the listener, which is why survivors must
    /// learn the new rendezvous address out of band (the coordinator
    /// advertisement in the checkpoint store).
    pub fn takeover(
        bind_addr: SocketAddr,
        ranks: usize,
        self_rank: usize,
        epoch: u32,
        opts: BootstrapOptions,
    ) -> Result<Self, TransportError> {
        assert!(self_rank < ranks, "acting rank must be in the cluster");
        let listener = TcpListener::bind(bind_addr).map_err(|e| TransportError::Connect {
            peer: self_rank,
            detail: format!("bind rendezvous address {bind_addr}: {e}"),
        })?;
        Ok(Coordinator {
            ranks,
            self_rank,
            links: (0..ranks).map(|_| None).collect(),
            peers: Vec::new(),
            opts,
            listener,
            epoch,
        })
    }

    /// The agreed data-plane address table, rank by rank.
    pub fn peers(&self) -> &[SocketAddr] {
        &self.peers
    }

    /// The rank acting as coordinator (0 unless this is a takeover).
    pub fn acting_rank(&self) -> usize {
        self.self_rank
    }

    /// The rendezvous listener's address — what followers connect to,
    /// and what the coordinator advertisement publishes.
    pub fn control_addr(&self) -> Result<SocketAddr, TransportError> {
        self.listener
            .local_addr()
            .map_err(|e| io_err(self.self_rank, "rendezvous local_addr", e))
    }

    /// Send one control frame to a follower. A rank whose control link
    /// is gone (it died during a tolerant rendezvous) is a typed
    /// disconnect, repaired by the next recovery rendezvous.
    pub fn send(&mut self, rank: usize, tag: u8, payload: &[u8]) -> Result<(), TransportError> {
        self.send_parts(rank, tag, &[payload])
    }

    /// [`Coordinator::send`] of a payload given as consecutive parts
    /// ([`write_frame_parts`]).
    fn send_parts<P: AsRef<[u8]>>(
        &self,
        rank: usize,
        tag: u8,
        parts: &[P],
    ) -> Result<(), TransportError> {
        let deadline = Instant::now() + self.opts.io_timeout;
        let link = self.links[rank]
            .as_ref()
            .ok_or(TransportError::Disconnected {
                peer: rank,
                during: "control-plane send (link lost)",
            })?;
        write_frame_parts(link, tag, parts, deadline, rank)
    }

    /// Ship this epoch's `CTRL` frame to every follower, streamed out of
    /// `plans` (one per rank): the standby's frame carries every plan —
    /// its own as the [`OMITTED`] marker when `shipped[standby]` says it
    /// was sent that plan as `PLAN` in this rendezvous — and every other
    /// rank's carries none. Returns each rank whose control link failed,
    /// with the error; the caller decides whether that is fatal.
    pub fn send_ctrl(
        &mut self,
        standby: u32,
        plans: &[Vec<u8>],
        shipped: &[bool],
    ) -> Vec<(usize, TransportError)> {
        let mut failed = Vec::new();
        for rank in (0..self.ranks).filter(|&r| r != self.self_rank) {
            let carried = (rank == standby as usize).then_some(plans);
            let omit = (carried.is_some() && shipped[rank]).then_some(rank);
            let parts = encode_ctrl(self.epoch, standby, carried, omit);
            if let Err(e) = self.send_parts(rank, TAG_CTRL, &parts) {
                failed.push((rank, e));
            }
        }
        failed
    }

    /// Receive one control frame from a follower into `buf`; returns the
    /// tag.
    pub fn recv(&mut self, rank: usize, buf: &mut Vec<u8>) -> Result<u8, TransportError> {
        let deadline = Instant::now() + self.opts.io_timeout;
        let link = self.links[rank]
            .as_ref()
            .ok_or(TransportError::Disconnected {
                peer: rank,
                during: "control-plane recv (link lost)",
            })?;
        read_frame_into(link, buf, deadline, rank)
    }

    /// The current recovery epoch (0 before any recovery).
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Run one **recovery rendezvous** after a data-plane failure: agree
    /// on a fresh peer table that replaces every rank's (torn-down) mesh.
    ///
    /// ```text
    /// coordinator:  RECOVER{epoch, coordinator_addr}  ──▶  every live control link
    /// survivor r:   JOIN{r, new_data_addr, flags=0, epoch}  ──▶  (same link)
    /// respawned r:  JOIN{r, data_addr, NEEDS_PLAN, ·}  ──▶  (fresh connection
    ///                                                        to the kept listener)
    /// coordinator:  PEERS{addrs, epoch}  ──────▶  everyone
    /// ```
    ///
    /// `data_addr` is the acting coordinator's own freshly bound
    /// data-plane address. Returns, per rank, whether its `PLAN` must be
    /// (re-)shipped — true exactly for the joins that carried
    /// `NEEDS_PLAN` (fresh processes holding no partition; a survivor
    /// reconnecting through a takeover coordinator's listener clears the
    /// flag and keeps its partition). Control links that fail during the
    /// exchange are treated as dead ranks and replaced by a listener
    /// join; a rank that appears on neither path before the connect
    /// deadline is a typed timeout.
    pub fn recover(&mut self, data_addr: SocketAddr) -> Result<Vec<bool>, TransportError> {
        self.epoch += 1;
        self.admit(data_addr)
    }

    /// Agree on a fresh peer table at the current epoch and broadcast it:
    /// the body of both [`Coordinator::rendezvous`] (epoch 0, every control
    /// link dead, so every rank arrives through the listener) and
    /// [`Coordinator::recover`].
    ///
    /// With [`BootstrapOptions::tolerate_lost`] off the listener phase is
    /// strict: a joiner that fails mid-`JOIN`, a rank out of range, a
    /// duplicate `JOIN` or a failed `PEERS` write is an error. With it on,
    /// such joiners are dropped (their respawns re-join), a newer listener
    /// `JOIN` replaces an older one, and a failed `PEERS` write marks the
    /// link dead for the next epoch to repair.
    fn admit(&mut self, data_addr: SocketAddr) -> Result<Vec<bool>, TransportError> {
        let epoch = self.epoch;
        let self_rank = self.self_rank;
        let strict = !self.opts.tolerate_lost;
        // The bootstrap waits under the (short) connect deadline. A
        // healthy survivor only notices a failure at its next transport
        // call, which can be a full compute phase away — so a recovery
        // gives the re-JOIN collection the generous control-plane deadline,
        // not just the connect one, so a long superstep on a big graph
        // doesn't get a live rank declared dead.
        let deadline = Instant::now()
            + match epoch {
                0 => self.opts.connect_timeout,
                _ => self.opts.connect_timeout.max(self.opts.io_timeout),
            };
        let mut peers: Vec<Option<SocketAddr>> = (0..self.ranks).map(|_| None).collect();
        let mut needs_plan = vec![false; self.ranks];
        peers[self_rank] = Some(data_addr);
        // Phase 1a: announce the epoch (and where this coordinator's
        // listener is) on every control link that still accepts writes;
        // failures mark the rank dead (its replacement will come through
        // the listener).
        if self.links.iter().any(Option::is_some) {
            let notice = encode_recover(epoch, &self.control_addr()?);
            for rank in (0..self.ranks).filter(|&r| r != self_rank) {
                let dead = match &self.links[rank] {
                    Some(link) => write_frame(link, TAG_RECOVER, &notice, deadline, rank).is_err(),
                    None => true,
                };
                if dead {
                    self.links[rank] = None;
                }
            }
        }
        // Phase 1b: collect the survivors' re-JOINs. A stale JOIN from an
        // aborted earlier recovery epoch is skipped, not an error.
        let mut scratch = Vec::new();
        for rank in (0..self.ranks).filter(|&r| r != self_rank) {
            let Some(link) = &self.links[rank] else {
                continue;
            };
            let joined = loop {
                match read_frame_into(link, &mut scratch, deadline, rank) {
                    Ok(TAG_JOIN) => match decode_join(&scratch, rank) {
                        Ok(j) if j.epoch != epoch => continue,
                        Ok(j) if j.rank == rank => break Some(j),
                        _ => break None,
                    },
                    _ => break None,
                }
            };
            match joined {
                Some(j) => {
                    peers[rank] = Some(j.addr);
                    needs_plan[rank] = j.flags & JOIN_NEEDS_PLAN != 0;
                }
                None => self.links[rank] = None,
            }
        }
        // Phase 2: accept fresh JOINs for the dead slots on the listener
        // (every slot at the bootstrap; respawned ranks at a recovery).
        // The backlog may hold JOINs from *abandoned* attempts (a
        // respawned rank that timed out waiting and reconnected), so when
        // tolerant a newer JOIN for an already-filled listener slot
        // replaces the older one — the newest connection is the one a live
        // process is waiting on.
        self.listener
            .set_nonblocking(true)
            .map_err(|e| io_err(self_rank, "rendezvous set_nonblocking", e))?;
        let mut from_listener = vec![false; self.ranks];
        loop {
            let complete = peers.iter().all(Option::is_some);
            let stream = match self.listener.accept() {
                Ok((s, _)) => s,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::Interrupted
                    ) =>
                {
                    if complete {
                        break; // every slot filled and the backlog drained
                    }
                    if Instant::now() >= deadline {
                        let missing = (0..self.ranks).find(|&r| peers[r].is_none()).unwrap();
                        return Err(TransportError::Timeout {
                            peer: missing,
                            during: match epoch {
                                0 => "bootstrap rendezvous (a rank never joined)",
                                _ => "recovery rendezvous (a rank never re-joined)",
                            },
                        });
                    }
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                }
                Err(e) => return Err(io_err(usize::MAX, "rendezvous accept", e)),
            };
            let join = match read_join(&stream, &mut scratch, deadline) {
                Ok(join) => join,
                Err(e) if strict => return Err(e),
                Err(_) => continue, // a dying straggler; its respawn re-joins
            };
            let rank = join.rank;
            // A listener join may only fill a dead slot (or, when
            // tolerant, replace a staler listener join); survivors
            // answered on their control links.
            let detail = if rank == self_rank || rank >= self.ranks {
                format!("JOIN from rank {rank}, expected one of 0..{}", self.ranks)
            } else if peers[rank].is_some() && (strict || !from_listener[rank]) {
                "duplicate JOIN".to_string()
            } else {
                String::new()
            };
            if !detail.is_empty() {
                if strict {
                    return Err(TransportError::Protocol { peer: rank, detail });
                }
                continue;
            }
            peers[rank] = Some(join.addr);
            // A fresh process joins with NEEDS_PLAN set; a *survivor*
            // joining through the listener (its old control link pointed
            // at a dead coordinator) keeps its in-memory partition and
            // joins with the flag clear.
            needs_plan[rank] = join.flags & JOIN_NEEDS_PLAN != 0;
            from_listener[rank] = true;
            self.links[rank] = Some(stream);
        }
        self.peers = peers.into_iter().map(Option::unwrap).collect();
        // Phase 3: broadcast the new table (old links and new alike). When
        // tolerant, a link that dies mid-broadcast is marked dead rather
        // than aborting the epoch: the stale address it leaves in the
        // table faults the new mesh, and the *next* recovery epoch
        // repairs it.
        let table = encode_peers(&self.peers, epoch);
        let io_deadline = Instant::now() + self.opts.io_timeout;
        for rank in (0..self.ranks).filter(|&r| r != self_rank) {
            let link = self.links[rank].as_ref().expect("every rank joined");
            match write_frame(link, TAG_PEERS, &table, io_deadline, rank) {
                Ok(()) => {}
                Err(e) if strict => return Err(e),
                Err(_) => self.links[rank] = None,
            }
        }
        Ok(needs_plan)
    }
}

/// Read the `JOIN` frame a fresh connection to the rendezvous listener
/// opens with.
fn read_join(
    stream: &TcpStream,
    scratch: &mut Vec<u8>,
    deadline: Instant,
) -> Result<Join, TransportError> {
    stream
        .set_nonblocking(false)
        .map_err(|e| io_err(usize::MAX, "joiner set_nonblocking", e))?;
    configure_stream(stream).map_err(|e| io_err(usize::MAX, "configure joiner", e))?;
    match read_frame_into(stream, scratch, deadline, usize::MAX)? {
        TAG_JOIN => decode_join(scratch, usize::MAX),
        tag => Err(TransportError::Protocol {
            peer: usize::MAX,
            detail: format!("expected JOIN, got tag {tag:#04x}"),
        }),
    }
}

/// Connect to the rendezvous address, retrying on a jittered exponential
/// backoff until `deadline`. A stream whose two ends are the same address
/// counts as a refusal: dialling a loopback port nobody listens on *yet*
/// (the coordinator is still starting) can be handed that very port as
/// its source port, and TCP then connects the socket to itself — which
/// would answer the follower with its own `JOIN` and keep the coordinator
/// from ever binding the address. `connect` is `TcpStream::connect`
/// outside the tests.
fn dial(
    coordinator: SocketAddr,
    rank: usize,
    deadline: Instant,
    mut connect: impl FnMut(SocketAddr) -> std::io::Result<TcpStream>,
) -> Result<TcpStream, TransportError> {
    let mut backoff = Backoff::for_connect(rank as u64);
    loop {
        let refused = match connect(coordinator) {
            Ok(mut s) if matches!((s.local_addr(), s.peer_addr()), (Ok(l), Ok(p)) if l == p) => {
                // A plain close would park the port in TIME_WAIT and keep
                // the coordinator out for a minute all the same. Closing
                // with unread data resets the connection instead, which
                // frees the port at once — so send ourselves a byte.
                let _ = s.write(&[0]);
                "connected to itself (nothing listens there yet)".to_string()
            }
            Ok(s) => return Ok(s),
            Err(e) => e.to_string(),
        };
        let now = Instant::now();
        if now >= deadline {
            return Err(TransportError::Connect {
                peer: 0,
                detail: format!("connect rendezvous {coordinator}: {refused}"),
            });
        }
        backoff.sleep(deadline - now);
    }
}

/// A non-zero rank's side of the rendezvous: connect, announce, receive
/// the peer table, then consume shipped frames.
#[derive(Debug)]
pub struct Follower {
    rank: usize,
    link: TcpStream,
    peers: Vec<SocketAddr>,
    opts: BootstrapOptions,
    /// Recovery epoch of the peer table currently held (0 = initial).
    epoch: u32,
}

impl Follower {
    /// Connect to the coordinator (retrying until the connect deadline —
    /// rank 0 may still be starting), announce `rank` + `data_addr`, and
    /// block for the peer table. Joining processes never hold a
    /// partition, so the `JOIN` carries `NEEDS_PLAN`; a *survivor*
    /// reconnecting to a takeover coordinator uses
    /// [`Follower::join_with`] with the flag clear to keep its partition.
    pub fn join(
        coordinator: SocketAddr,
        rank: usize,
        data_addr: SocketAddr,
        opts: BootstrapOptions,
    ) -> Result<Self, TransportError> {
        Self::join_with(coordinator, rank, data_addr, JOIN_NEEDS_PLAN, opts)
    }

    /// [`Follower::join`] with explicit `JOIN` flags. Any rank may join —
    /// including a respawned rank 0 rejoining a takeover coordinator as a
    /// plain follower. Connect retries follow a jittered exponential
    /// backoff (seeded by `rank` so a whole cluster of retriers does not
    /// SYN-storm a slow coordinator in lockstep).
    pub fn join_with(
        coordinator: SocketAddr,
        rank: usize,
        data_addr: SocketAddr,
        flags: u8,
        opts: BootstrapOptions,
    ) -> Result<Self, TransportError> {
        let deadline = Instant::now() + opts.connect_timeout;
        let stream = dial(coordinator, rank, deadline, TcpStream::connect)?;
        configure_stream(&stream).map_err(|e| io_err(0, "configure rendezvous stream", e))?;
        let join = encode_join(rank, &data_addr, flags, 0);
        write_frame(&stream, TAG_JOIN, &join, deadline, 0)?;
        // The table comes once every rank joined — and a respawned rank's
        // only once the coordinator's own data plane faulted, which can
        // take it a whole mesh connect deadline — so the wait gets the
        // coordinator's own collection deadline, not just the connect one.
        let deadline = Instant::now() + opts.connect_timeout.max(opts.io_timeout);
        let mut scratch = Vec::new();
        let tag = read_frame_into(&stream, &mut scratch, deadline, 0)?;
        if tag != TAG_PEERS {
            return Err(TransportError::Protocol {
                peer: 0,
                detail: format!("expected PEERS, got tag {tag:#04x}"),
            });
        }
        let (peers, epoch) = decode_peers(&scratch, rank)?;
        if peers[rank] != data_addr {
            return Err(TransportError::Protocol {
                peer: 0,
                detail: format!(
                    "peer table lists {} for rank {rank}, but we bound {data_addr}",
                    peers[rank]
                ),
            });
        }
        Ok(Follower {
            rank,
            link: stream,
            peers,
            opts,
            epoch,
        })
    }

    /// The agreed data-plane address table, rank by rank.
    pub fn peers(&self) -> &[SocketAddr] {
        &self.peers
    }

    /// Receive one control frame from the coordinator into `buf`; returns
    /// the tag.
    pub fn recv(&mut self, buf: &mut Vec<u8>) -> Result<u8, TransportError> {
        let deadline = Instant::now() + self.opts.io_timeout;
        read_frame_into(&self.link, buf, deadline, 0)
    }

    /// Receive this rank's `PLAN` frame: the first frame after a join
    /// that carried [`JOIN_NEEDS_PLAN`].
    pub fn recv_plan(&mut self) -> Result<Vec<u8>, TransportError> {
        let mut plan = Vec::new();
        match self.recv(&mut plan)? {
            TAG_PLAN => Ok(plan),
            tag => Err(TransportError::Protocol {
                peer: 0,
                detail: format!("expected a PLAN frame, got tag {tag:#04x}"),
            }),
        }
    }

    /// Receive the `CTRL` frame an armed coordinator sends after every
    /// rendezvous. `shipped` is the plan [`Follower::recv_plan`] returned
    /// in this rendezvous, if any: on the standby it becomes its own entry
    /// of [`CtrlState::plans`], which the frame omitted; any other rank
    /// drops it.
    pub fn recv_ctrl(&mut self, shipped: Option<Vec<u8>>) -> Result<CtrlState, TransportError> {
        let mut buf = Vec::new();
        match self.recv(&mut buf)? {
            TAG_CTRL => decode_ctrl(&buf, 0, shipped.map(|plan| (self.rank, plan))),
            tag => Err(TransportError::Protocol {
                peer: 0,
                detail: format!("expected a CTRL frame, got tag {tag:#04x}"),
            }),
        }
    }

    /// Send one control frame to the coordinator.
    pub fn send(&mut self, tag: u8, payload: &[u8]) -> Result<(), TransportError> {
        let deadline = Instant::now() + self.opts.io_timeout;
        write_frame(&self.link, tag, payload, deadline, 0)
    }

    /// Recovery epoch of the peer table currently held.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// A surviving rank's side of a recovery rendezvous: wait for the
    /// coordinator's `RECOVER`, announce this rank's freshly bound
    /// `data_addr` (keeping its in-memory partition — no plan re-ship),
    /// and adopt the rebroadcast peer table. If another failure interrupts
    /// the exchange (a second `RECOVER` arrives instead of `PEERS`), the
    /// handshake restarts at the newer epoch. Returns the agreed epoch.
    pub fn rejoin(&mut self, data_addr: SocketAddr) -> Result<u32, TransportError> {
        // A live coordinator only notices the failure at its next
        // transport call, which can be a full compute phase away; a dead
        // one closes this link at once. So the wait for RECOVER gets the
        // generous deadline the coordinator's own re-JOIN collection has:
        // giving up early would elect a standby beside a live
        // coordinator.
        let deadline = Instant::now() + self.opts.connect_timeout.max(self.opts.io_timeout);
        let mut scratch = Vec::new();
        // Wait for the coordinator to open the recovery epoch.
        let mut epoch = match read_frame_into(&self.link, &mut scratch, deadline, 0)? {
            TAG_RECOVER => decode_recover(&scratch)?,
            other => {
                return Err(TransportError::Protocol {
                    peer: 0,
                    detail: format!("expected RECOVER, got tag {other:#04x}"),
                })
            }
        };
        loop {
            let join = encode_join(self.rank, &data_addr, 0, epoch);
            write_frame(&self.link, TAG_JOIN, &join, deadline, 0)?;
            match read_frame_into(&self.link, &mut scratch, deadline, 0)? {
                TAG_PEERS => {
                    let (peers, peers_epoch) = decode_peers(&scratch, self.rank)?;
                    if peers[self.rank] != data_addr {
                        return Err(TransportError::Protocol {
                            peer: 0,
                            detail: format!(
                                "recovery table lists {} for rank {}, but we bound {data_addr}",
                                peers[self.rank], self.rank
                            ),
                        });
                    }
                    self.peers = peers;
                    self.epoch = peers_epoch;
                    return Ok(peers_epoch);
                }
                TAG_RECOVER => {
                    // The recovery itself was interrupted by another
                    // failure; re-announce under the newer epoch.
                    epoch = decode_recover(&scratch)?;
                }
                other => {
                    return Err(TransportError::Protocol {
                        peer: 0,
                        detail: format!("expected PEERS, got tag {other:#04x}"),
                    })
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn free_addr() -> SocketAddr {
        TcpListener::bind(("127.0.0.1", 0))
            .unwrap()
            .local_addr()
            .unwrap()
    }

    fn quick() -> BootstrapOptions {
        BootstrapOptions {
            connect_timeout: Duration::from_secs(5),
            io_timeout: Duration::from_secs(5),
            tolerate_lost: false,
        }
    }

    /// Full rendezvous: 3 ranks agree on a peer table and can exchange
    /// control frames both ways.
    #[test]
    fn rendezvous_exchanges_peer_table_and_frames() {
        let rendezvous = free_addr();
        let data: Vec<SocketAddr> = (0..3).map(|_| free_addr()).collect();
        let mut handles = Vec::new();
        for rank in 1..3usize {
            let data = data.clone();
            handles.push(std::thread::spawn(move || {
                let mut f = Follower::join(rendezvous, rank, data[rank], quick()).unwrap();
                assert_eq!(f.peers(), &data[..]);
                let mut buf = Vec::new();
                let tag = f.recv(&mut buf).unwrap();
                assert_eq!(tag, TAG_PLAN);
                assert_eq!(buf, vec![rank as u8; 4]);
                f.send(TAG_SETTINGS, &[rank as u8]).unwrap();
            }));
        }
        let mut c = Coordinator::rendezvous(rendezvous, 3, data[0], quick()).unwrap();
        assert_eq!(c.peers(), &data[..]);
        for rank in 1..3 {
            c.send(rank, TAG_PLAN, &[rank as u8; 4]).unwrap();
        }
        let mut buf = Vec::new();
        for rank in 1..3 {
            let tag = c.recv(rank, &mut buf).unwrap();
            assert_eq!(tag, TAG_SETTINGS);
            assert_eq!(buf, vec![rank as u8]);
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    /// A missing rank is a typed timeout, not a hang.
    #[test]
    fn rendezvous_times_out_on_missing_rank() {
        let rendezvous = free_addr();
        let opts = BootstrapOptions {
            connect_timeout: Duration::from_millis(300),
            io_timeout: Duration::from_millis(300),
            tolerate_lost: false,
        };
        let err = Coordinator::rendezvous(rendezvous, 2, free_addr(), opts).unwrap_err();
        assert!(
            matches!(err, TransportError::Timeout { peer: 1, .. }),
            "{err}"
        );
    }

    /// A follower pointed at a dead address fails with a typed connect
    /// error within the deadline.
    #[test]
    fn follower_fails_fast_on_dead_coordinator() {
        let dead = free_addr(); // bound then dropped: nothing listens
        let opts = BootstrapOptions {
            connect_timeout: Duration::from_millis(300),
            io_timeout: Duration::from_millis(300),
            tolerate_lost: false,
        };
        let err = Follower::join(dead, 1, free_addr(), opts).unwrap_err();
        assert!(
            matches!(err, TransportError::Connect { peer: 0, .. }),
            "{err}"
        );
    }

    /// A loopback TCP socket connected to itself, the way a follower gets
    /// one by accident: source port == destination port, nobody listening.
    /// `std` cannot choose a source port, so this goes through libc.
    #[cfg(target_os = "linux")]
    fn self_connected(addr: SocketAddr) -> std::io::Result<TcpStream> {
        use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
        #[repr(C)]
        struct SockaddrIn {
            family: u16,
            port_be: u16,
            addr_be: u32,
            zero: [u8; 8],
        }
        extern "C" {
            fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
            fn bind(fd: i32, addr: *const SockaddrIn, len: u32) -> i32;
            fn connect(fd: i32, addr: *const SockaddrIn, len: u32) -> i32;
        }
        const AF_INET: i32 = 2;
        const SOCK_STREAM: i32 = 1;
        let SocketAddr::V4(v4) = addr else {
            panic!("loopback v4 only")
        };
        let sa = SockaddrIn {
            family: AF_INET as u16,
            port_be: v4.port().to_be(),
            addr_be: u32::from(*v4.ip()).to_be(),
            zero: [0; 8],
        };
        let len = std::mem::size_of::<SockaddrIn>() as u32;
        // SAFETY: plain libc calls; `sa` is a live, correctly laid out
        // `sockaddr_in` of `len` bytes for both calls that read it, and
        // the fresh descriptor is owned (and closed) by `OwnedFd`.
        unsafe {
            let fd = socket(AF_INET, SOCK_STREAM, 0);
            if fd < 0 {
                return Err(std::io::Error::last_os_error());
            }
            let fd = OwnedFd::from_raw_fd(fd);
            if bind(fd.as_raw_fd(), &sa, len) != 0 || connect(fd.as_raw_fd(), &sa, len) != 0 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(TcpStream::from(fd))
        }
    }

    /// The 1-in-~800 rendezvous failure, forced: the follower's first
    /// dial lands on the not-yet-bound rendezvous port from that same
    /// source port and connects to itself. `dial` must treat that as a
    /// refusal and reset the socket — so the coordinator can bind the
    /// address at once, not a TIME_WAIT later — then reach the real
    /// listener on the retry.
    #[cfg(target_os = "linux")]
    #[test]
    fn follower_refuses_a_self_connected_rendezvous_socket() {
        let rendezvous = free_addr();
        let mut listener = None;
        let mut attempts = 0;
        let stream = dial(
            rendezvous,
            1,
            Instant::now() + Duration::from_secs(5),
            |addr| {
                attempts += 1;
                if attempts == 1 {
                    let own = self_connected(addr)?;
                    assert_eq!(own.local_addr()?, own.peer_addr()?);
                    assert!(TcpListener::bind(addr).is_err(), "the squatter holds it");
                    return Ok(own);
                }
                // `dial` reset the squatter: rank 0 can bind now.
                listener.get_or_insert_with(|| TcpListener::bind(addr).expect("port was freed"));
                TcpStream::connect(addr)
            },
        )
        .unwrap();
        assert_eq!(attempts, 2, "the self-connect took the retry path");
        assert_eq!(stream.peer_addr().unwrap(), rendezvous);
        assert_ne!(stream.local_addr().unwrap(), rendezvous);
        let (_, from) = listener.unwrap().accept().unwrap();
        assert_eq!(from, stream.local_addr().unwrap());
    }

    /// A full recovery rendezvous: one rank "dies" (drops its control
    /// link) and re-joins through the kept listener as a fresh process,
    /// the survivor re-joins over its existing link, and everyone agrees
    /// on the new table. The fresh rank — and only the fresh rank — is
    /// flagged for plan re-shipping.
    #[test]
    fn recovery_rendezvous_replaces_a_dead_rank() {
        let rendezvous = free_addr();
        let data: Vec<SocketAddr> = (0..3).map(|_| free_addr()).collect();
        let new_data: Vec<SocketAddr> = (0..3).map(|_| free_addr()).collect();
        let survivor_new = new_data[1];
        let respawn_new = new_data[2];
        // Rank 1 survives: joins, then re-joins over the same link.
        let (data1, data2) = (data[1], data[2]);
        let survivor = std::thread::spawn(move || {
            let mut f = Follower::join(rendezvous, 1, data1, quick()).unwrap();
            assert_eq!(f.epoch(), 0);
            let epoch = f.rejoin(survivor_new).unwrap();
            assert_eq!(epoch, 1);
            assert_eq!(f.epoch(), 1);
            f.peers().to_vec()
        });
        // Rank 2 dies after the bootstrap: its link simply drops.
        let dying = std::thread::spawn(move || {
            let f = Follower::join(rendezvous, 2, data2, quick()).unwrap();
            drop(f);
        });
        let mut c = Coordinator::rendezvous(rendezvous, 3, data[0], quick()).unwrap();
        dying.join().unwrap();
        // The respawned rank 2 re-joins through the ordinary join path.
        let respawned = std::thread::spawn(move || {
            let mut f = Follower::join(rendezvous, 2, respawn_new, quick()).unwrap();
            assert_eq!(f.epoch(), 1, "respawned rank adopts the recovery epoch");
            // The rebuilt control link carries the re-shipped plan.
            let mut plan = Vec::new();
            assert_eq!(f.recv(&mut plan).unwrap(), TAG_PLAN);
            assert_eq!(plan, vec![9, 9]);
            f.peers().to_vec()
        });
        let needs_plan = c.recover(new_data[0]).unwrap();
        assert_eq!(c.epoch(), 1);
        assert_eq!(needs_plan, vec![false, false, true]);
        let expect = vec![new_data[0], survivor_new, respawn_new];
        assert_eq!(c.peers(), &expect[..]);
        c.send(2, TAG_PLAN, &[9, 9]).unwrap();
        assert_eq!(survivor.join().unwrap(), expect);
        assert_eq!(respawned.join().unwrap(), expect);
    }

    /// A recovery where a rank never re-appears is a typed timeout.
    #[test]
    fn recovery_times_out_on_a_missing_rank() {
        let rendezvous = free_addr();
        let data: Vec<SocketAddr> = (0..2).map(|_| free_addr()).collect();
        let opts = BootstrapOptions {
            connect_timeout: Duration::from_millis(400),
            io_timeout: Duration::from_millis(400),
            tolerate_lost: false,
        };
        let data1 = data[1];
        let dying = std::thread::spawn(move || {
            let f = Follower::join(rendezvous, 1, data1, opts).unwrap();
            drop(f);
        });
        let mut c = Coordinator::rendezvous(rendezvous, 2, data[0], opts).unwrap();
        dying.join().unwrap();
        let err = c.recover(free_addr()).unwrap_err();
        assert!(
            matches!(err, TransportError::Timeout { peer: 1, .. }),
            "{err}"
        );
    }

    /// `CTRL` frames round-trip every shape: configuration-only (no
    /// plans), the standby's full replica, and the replica without the
    /// standby's own plan, which the receiver puts back from its `PLAN` —
    /// an empty plan stays distinct from an omitted one.
    #[test]
    fn ctrl_frame_round_trips() {
        let bare = CtrlState {
            epoch: 3,
            standby: 2,
            plans: None,
        };
        let encode = |s: &CtrlState, omit| {
            encode_ctrl(s.epoch, s.standby, s.plans.as_deref(), omit).concat()
        };
        assert_eq!(decode_ctrl(&encode(&bare, None), 1, None).unwrap(), bare);
        let full = CtrlState {
            epoch: 7,
            standby: 1,
            plans: Some(vec![vec![1, 2, 3], Vec::new(), vec![9; 300]]),
        };
        let whole = encode(&full, None);
        assert_eq!(decode_ctrl(&whole, 1, None).unwrap(), full);
        // The receiver's plan goes unused when the frame carries it.
        assert_eq!(decode_ctrl(&whole, 1, Some((2, vec![5]))).unwrap(), full);
        for (omit, plan) in [(2, vec![9; 300]), (1, Vec::new())] {
            let frame = encode(&full, Some(omit));
            assert_eq!(frame.len(), whole.len() - plan.len());
            assert_eq!(decode_ctrl(&frame, 1, Some((omit, plan))).unwrap(), full);
            // An omitted plan nobody shipped, or shipped for another
            // rank, is a protocol error.
            for shipped in [None, Some((0, vec![1, 2, 3]))] {
                assert!(matches!(
                    decode_ctrl(&frame, 1, shipped),
                    Err(TransportError::Protocol { .. })
                ));
            }
        }
        assert!(matches!(
            decode_ctrl(&[1, 2], 1, None),
            Err(TransportError::Protocol { .. })
        ));
    }

    /// A `CTRL` frame naming 2³² − 1 plans is refused before anything is
    /// allocated for them.
    #[test]
    fn ctrl_with_an_absurd_plan_count_is_a_protocol_error() {
        let mut frame = Vec::new();
        0u32.encode(&mut frame);
        1u32.encode(&mut frame);
        true.encode(&mut frame);
        u32::MAX.encode(&mut frame);
        frame.extend_from_slice(&[0; 16]);
        assert!(matches!(
            decode_ctrl(&frame, 3, None),
            Err(TransportError::Protocol { peer: 3, .. })
        ));
    }

    /// The damage property of the bootstrap decoders, one table line per
    /// codec: the valid frame decodes, and every prefix truncation and
    /// every single-bit flip of it decodes to a typed error or a valid
    /// state — never a panic or an allocation sized by an unchecked count.
    #[test]
    fn every_damaged_bootstrap_frame_decodes_typed() {
        let plans = [vec![1u8, 2, 3], vec![7; 20], vec![9; 5]];
        type Decode = fn(&[u8]) -> Result<(), TransportError>;
        let addrs: Vec<SocketAddr> = (0..3)
            .map(|r| SocketAddr::from(([127, 0, 0, 1], 4400 + r)))
            .collect();
        let table: [(&str, Vec<u8>, Decode); 4] = [
            ("JOIN", encode_join(2, &addrs[2], JOIN_NEEDS_PLAN, 5), |f| {
                decode_join(f, 0).map(drop)
            }),
            ("PEERS", encode_peers(&addrs, 1), |f| {
                decode_peers(f, 1).map(drop)
            }),
            ("RECOVER", encode_recover(3, &addrs[0]), |f| {
                decode_recover(f).map(drop)
            }),
            (
                "CTRL without the receiver's own plan",
                encode_ctrl(4, 1, Some(&plans), Some(1)).concat(),
                |f| decode_ctrl(f, 0, Some((1, vec![7; 20]))).map(drop),
            ),
        ];
        for (name, frame, decode) in table {
            decode(&frame).unwrap_or_else(|e| panic!("{name}: the valid frame fails: {e}"));
            for len in 0..frame.len() {
                assert!(decode(&frame[..len]).is_err(), "{name}: {len}-byte prefix");
            }
            let mut flipped = frame.clone();
            for bit in 0..frame.len() * 8 {
                flipped[bit / 8] ^= 1 << (bit % 8);
                let _ = decode(&flipped);
                flipped[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    /// Plans of an `M`-rank run for the splice test: distinct per rank.
    fn splice_plans(ranks: usize) -> Vec<Vec<u8>> {
        (0..ranks)
            .map(|r| (0..64 + 7 * r).map(|i| (i * 13 + r) as u8).collect())
            .collect()
    }

    /// One splice case: a bootstrap where every follower is shipped its
    /// `PLAN` and then `CTRL`, and a recovery epoch after `victim` (if
    /// any) died and re-joined as a fresh process, re-shipped its plan.
    /// Returns each follower's `(bootstrap, recovery)` control state.
    fn splice_run(
        ranks: usize,
        standby: u32,
        victim: Option<usize>,
    ) -> Vec<(CtrlState, CtrlState)> {
        let plans = splice_plans(ranks);
        let rendezvous = free_addr();
        let data: Vec<SocketAddr> = (0..ranks).map(|_| free_addr()).collect();
        let new_data: Vec<SocketAddr> = (0..ranks).map(|_| free_addr()).collect();
        let followers: Vec<_> = (1..ranks)
            .map(|rank| {
                let (addr, new_addr, want) = (data[rank], new_data[rank], plans[rank].clone());
                let all: usize = plans.iter().map(|p| 8 + p.len()).sum();
                let wire_len = match rank == standby as usize {
                    true => 9 + 4 + all - want.len(),
                    false => 9,
                };
                std::thread::spawn(move || {
                    let mut f = Follower::join(rendezvous, rank, addr, quick()).unwrap();
                    let plan = f.recv_plan().unwrap();
                    assert_eq!(plan, want);
                    // The bootstrap frame, read raw: the standby's lacks
                    // exactly its own plan's bytes.
                    let mut frame = Vec::new();
                    assert_eq!(f.recv(&mut frame).unwrap(), TAG_CTRL);
                    assert_eq!(frame.len(), wire_len);
                    let boot = decode_ctrl(&frame, 0, Some((rank, plan))).unwrap();
                    if victim == Some(rank) {
                        drop(f);
                        let mut f = Follower::join(rendezvous, rank, new_addr, quick()).unwrap();
                        let plan = f.recv_plan().unwrap();
                        (boot, f.recv_ctrl(Some(plan)).unwrap())
                    } else {
                        f.rejoin(new_addr).unwrap();
                        (boot, f.recv_ctrl(None).unwrap())
                    }
                })
            })
            .collect();
        let mut c = Coordinator::rendezvous(rendezvous, ranks, data[0], quick()).unwrap();
        for (r, plan) in plans.iter().enumerate().skip(1) {
            c.send(r, TAG_PLAN, plan).unwrap();
        }
        let shipped: Vec<bool> = (0..ranks).map(|r| r != 0).collect();
        assert!(c.send_ctrl(standby, &plans, &shipped).is_empty());
        let needs_plan = c.recover(new_data[0]).unwrap();
        assert_eq!(
            needs_plan,
            (0..ranks).map(|r| Some(r) == victim).collect::<Vec<_>>()
        );
        if let Some(r) = victim {
            c.send(r, TAG_PLAN, &plans[r]).unwrap();
        }
        assert!(c.send_ctrl(standby, &plans, &needs_plan).is_empty());
        followers.into_iter().map(|h| h.join().unwrap()).collect()
    }

    /// The standby ends every rendezvous holding the coordinator's plans
    /// byte for byte, although its `CTRL` frame omits the plan it was just
    /// shipped as `PLAN` (at bootstrap, and at a recovery epoch that
    /// respawned it); a surviving standby is sent every plan. Every other
    /// follower keeps none. M ∈ {2, 3, 4}, standby ∈ {1, M − 1}.
    #[test]
    fn ctrl_splice_gives_the_standby_every_plan() {
        for ranks in 2..=4usize {
            let plans = splice_plans(ranks);
            let mut standbys = vec![1, ranks - 1];
            standbys.dedup();
            for standby in standbys {
                // The standby respawned, or survived while another
                // follower (if there is one) was respawned.
                let other = (1..ranks).find(|&r| r != standby);
                for victim in [Some(standby), other] {
                    let states = splice_run(ranks, standby as u32, victim);
                    for (i, (boot, recovered)) in states.into_iter().enumerate() {
                        let rank = i + 1;
                        let case =
                            format!("M={ranks} standby={standby} victim={victim:?} rank={rank}");
                        let want = (rank == standby).then(|| plans.clone());
                        for (state, epoch) in [(boot, 0), (recovered, 1)] {
                            assert_eq!(state.epoch, epoch, "{case}");
                            assert_eq!(state.standby, standby as u32, "{case}");
                            assert_eq!(state.plans, want, "{case} at epoch {epoch}");
                        }
                    }
                }
            }
        }
    }

    /// Coordinator failover: rank 1 takes over after rank 0's death,
    /// binds a fresh listener, and runs a recovery rendezvous where the
    /// survivor (rank 2) reconnects keeping its partition, the respawned
    /// rank 0 joins as a plain follower needing its plan, and everyone
    /// agrees on the new table at the bumped epoch.
    #[test]
    fn takeover_rendezvous_elects_a_standby_coordinator() {
        let data: Vec<SocketAddr> = (0..3).map(|_| free_addr()).collect();
        let mut c = Coordinator::takeover(free_addr(), 3, 1, 4, quick()).unwrap();
        assert_eq!(c.acting_rank(), 1);
        let rendezvous = c.control_addr().unwrap();
        let (data0, data2) = (data[0], data[2]);
        // Survivor rank 2: reconnects with NEEDS_PLAN clear.
        let survivor = std::thread::spawn(move || {
            let f = Follower::join_with(rendezvous, 2, data2, 0, quick()).unwrap();
            assert_eq!(f.epoch(), 5, "survivor adopts the takeover epoch");
            f.peers().to_vec()
        });
        // Respawned rank 0: an ordinary join — it is a follower now.
        let respawned = std::thread::spawn(move || {
            let mut f = Follower::join(rendezvous, 0, data0, quick()).unwrap();
            assert_eq!(f.epoch(), 5);
            let mut plan = Vec::new();
            assert_eq!(f.recv(&mut plan).unwrap(), TAG_PLAN);
            assert_eq!(plan, vec![7; 3]);
            f.peers().to_vec()
        });
        let needs_plan = c.recover(data[1]).unwrap();
        assert_eq!(c.epoch(), 5);
        assert_eq!(
            needs_plan,
            vec![true, false, false],
            "only the respawned rank needs its plan re-shipped"
        );
        assert_eq!(c.peers(), &data[..]);
        c.send(0, TAG_PLAN, &[7; 3]).unwrap();
        assert_eq!(survivor.join().unwrap(), data);
        assert_eq!(respawned.join().unwrap(), data);
    }

    /// Duplicate JOINs are protocol violations, not silent overwrites.
    #[test]
    fn rendezvous_rejects_duplicate_joins() {
        let rendezvous = free_addr();
        // Two joiners claiming the same rank, racing from separate
        // threads; whichever arrives second trips the coordinator.
        let joiners: Vec<_> = (0..2)
            .map(|_| {
                std::thread::spawn(move || Follower::join(rendezvous, 1, free_addr(), quick()))
            })
            .collect();
        let err = Coordinator::rendezvous(rendezvous, 3, free_addr(), quick()).unwrap_err();
        assert!(matches!(err, TransportError::Protocol { .. }), "{err}");
        for j in joiners {
            // The coordinator died: at most one join can have gotten as
            // far as a peer table, and that table never arrives.
            assert!(j.join().unwrap().is_err());
        }
    }
}
