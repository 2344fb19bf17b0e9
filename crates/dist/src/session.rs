//! One rank's control-plane session: bootstrap, recovery and coordinator
//! election as one state machine.
//!
//! ```text
//!            start                    fault                 (control plane lost)
//! Joining ─────────▶ Running ─────────────▶ Faulted ──▶ Rejoining ──▶ Electing
//!   │                  ▲                      │            │            │   │
//!   │ (rank 0)         │                      ▼            │ standby ◀──┘   └──▶ Following
//!   └──▶ Shipping ─────┤               Coordinating ◀──────┼── (takeover)          │
//!                      └──────────── mesh ◀────────────────┴─────────────────────┘
//! ```
//!
//! A session owns everything a rank of a `pcgraph --ranks` job holds
//! besides its graph: the control link (or, on the acting coordinator,
//! every control link and the rendezvous listener), the encoded plans a
//! recovery re-ships, the replicated control state, and the engine
//! [`Config`] over the current mesh. Plans are opaque bytes here: the
//! caller encodes them ([`Shipping::ship`]) and decodes them
//! ([`Joined::plan`]).
//!
//! Each protocol step is written once:
//!
//! * **the join loop** ([`join`]) — find the acting coordinator through
//!   the advertisement (or the `--coordinator` address) and join it under
//!   a jittered backoff, at bootstrap, as a respawn, and when following a
//!   takeover;
//! * **the coordinator epoch** ([`Session::coordinate`]) — recovery
//!   rendezvous, plan re-ship, publish, mesh — run by a live coordinator
//!   after a fault and by a standby right after it takes over;
//! * **the publish** ([`Publisher::publish`]) — replica commit, then the
//!   advertisement, then the `CTRL` frames, each durable before the next;
//! * **the mesh step** ([`Session::mesh`]) — the data-plane mesh and the
//!   engine config over it.
//!
//! Every failure is a typed [`SessionError`]; nothing here exits the
//! process. Failover is armed when checkpointing is on (the engine
//! config's `ckpt`) and the job has at least two ranks: the checkpoint
//! directory then also holds the control replica and the coordinator
//! advertisement ([`pc_ckpt::Store`]).

use crate::backoff::Backoff;
use crate::bootstrap::{
    BootstrapOptions, Coordinator, CtrlState, Follower, JOIN_NEEDS_PLAN, TAG_PLAN,
};
use pc_bsp::{Config, MeshListener, Tcp, TcpOptions, TransportError};
use pc_ckpt::{Advertisement, CkptError, RunId, Store};
use std::net::{IpAddr, SocketAddr};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The deadlines and budget of a multi-process job, read once from the
/// environment ([`Deadlines::from_env`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadlines {
    /// `PC_DIST_CONNECT_TIMEOUT_MS`: rendezvous and mesh connect deadline.
    pub connect: Duration,
    /// `PC_DIST_JOIN_TIMEOUT_MS`: the launcher's whole-run deadline.
    pub join: Duration,
    /// `PC_DIST_MAX_RESPAWNS`: per-rank respawn budget when checkpointing
    /// is on; a rank's recovery attempts are bounded by it times the rank
    /// count.
    pub max_respawns: u32,
    /// Deadline of one control-plane frame (no variable; plan frames
    /// carry whole CSR slices, so it is generous).
    pub io: Duration,
}

impl Default for Deadlines {
    fn default() -> Self {
        Deadlines {
            connect: Duration::from_millis(10_000),
            join: Duration::from_millis(600_000),
            max_respawns: 3,
            io: BootstrapOptions::default().io_timeout,
        }
    }
}

impl Deadlines {
    /// Read `PC_DIST_CONNECT_TIMEOUT_MS`, `PC_DIST_JOIN_TIMEOUT_MS` and
    /// `PC_DIST_MAX_RESPAWNS`; an unset variable keeps its default, a set
    /// but unparsable one is an error naming it — never silently the
    /// default, which is how a wedged cluster outlives its CI job.
    pub fn from_env() -> Result<Self, String> {
        Deadlines::from_vars(|name| std::env::var(name).ok())
    }

    fn from_vars(var: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        let d = Deadlines::default();
        let ms = |name: &str, default: Duration| match var(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map(Duration::from_millis)
                .map_err(|_| format!("{name} expects milliseconds, got '{v}'")),
        };
        Ok(Deadlines {
            connect: ms("PC_DIST_CONNECT_TIMEOUT_MS", d.connect)?,
            join: ms("PC_DIST_JOIN_TIMEOUT_MS", d.join)?,
            max_respawns: match var("PC_DIST_MAX_RESPAWNS") {
                None => d.max_respawns,
                Some(v) => v
                    .parse()
                    .map_err(|_| format!("PC_DIST_MAX_RESPAWNS expects a number, got '{v}'"))?,
            },
            io: d.io,
        })
    }
}

/// What one rank of a multi-process job is.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// Ranks in the job.
    pub ranks: usize,
    /// This process's rank.
    pub rank: usize,
    /// The rendezvous address rank 0 listens on (`--coordinator`).
    pub coordinator: SocketAddr,
    /// Interface the data-plane (and a takeover's rendezvous) listeners
    /// bind.
    pub bind: IpAddr,
    /// The designated standby (`--standby N`); `None` picks the lowest
    /// rank that is not acting coordinator.
    pub standby: Option<usize>,
    /// Names the job in the control replica's identity, next to the rank
    /// and vertex counts.
    pub replica_tag: String,
    /// Deadlines and the recovery budget.
    pub deadlines: Deadlines,
    /// The engine settings every mesh's config carries (`spin_budget`,
    /// `ckpt`, `trace`). Its `ckpt` arms recovery, and with two or more
    /// ranks coordinator failover.
    pub config: Config,
}

impl SessionSpec {
    fn recovery(&self) -> bool {
        self.config.ckpt.is_some()
    }

    fn failover(&self) -> bool {
        self.recovery() && self.ranks >= 2
    }

    fn bootstrap(&self) -> BootstrapOptions {
        BootstrapOptions {
            connect_timeout: self.deadlines.connect,
            io_timeout: self.deadlines.io,
            tolerate_lost: self.recovery(),
        }
    }

    /// The store carrying the control replica and the advertisement, when
    /// failover is armed.
    fn store(&self) -> Result<Option<Store>, SessionError> {
        match &self.config.ckpt {
            Some(policy) if self.failover() => Store::open(&policy.dir)
                .map(Some)
                .map_err(|e| SessionError::store("open checkpoint store", e)),
            _ => Ok(None),
        }
    }

    /// Bind a data-plane listener on the bind interface, with its Unix
    /// name beside it on a loopback interface, before the address goes
    /// out in `JOIN` or `PEERS`; peers dial the address from the
    /// rebroadcast peer table, over the link kind it calls for.
    fn bind_data(&self) -> Result<(MeshListener, SocketAddr), TransportError> {
        let listener = MeshListener::bind(self.bind, self.rank)?;
        let addr = listener.local_addr()?;
        Ok((listener, addr))
    }
}

/// Why a session could not go on. [`SessionError::Store`] is a local I/O
/// failure; every other variant is a failed bootstrap or recovery.
#[derive(Debug)]
pub enum SessionError {
    /// A rendezvous, control frame or mesh failed.
    Transport(TransportError),
    /// No acting coordinator could be joined before the deadline. When
    /// following a takeover, `standby` names the rank that should have
    /// taken over (it may have died with the coordinator).
    NoCoordinator {
        /// This rank.
        rank: usize,
        /// The standby a follower waited for, if it was following.
        standby: Option<u32>,
    },
    /// A shipped plan or the control replica cannot be used.
    Plan(String),
    /// Recovery rendezvous kept failing past the attempt budget.
    Exhausted(TransportError),
    /// A data-plane fault arrived past the attempt budget; the caller
    /// resumes the failure it was handling.
    GaveUp,
    /// The control replica or advertisement could not be read or written.
    Store {
        /// What was being attempted.
        during: &'static str,
        /// The checkpoint-store error.
        error: CkptError,
    },
    /// Fault injection: the session was dropped at this step.
    #[cfg(test)]
    Killed(Step),
}

impl SessionError {
    fn store(during: &'static str, error: CkptError) -> Self {
        SessionError::Store { during, error }
    }
}

impl From<TransportError> for SessionError {
    fn from(e: TransportError) -> Self {
        SessionError::Transport(e)
    }
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Transport(e) => write!(f, "{e}"),
            SessionError::NoCoordinator {
                rank,
                standby: None,
            } => write!(
                f,
                "rank {rank}: no acting coordinator reachable before the deadline"
            ),
            SessionError::NoCoordinator {
                rank,
                standby: Some(s),
            } => write!(
                f,
                "rank {rank}: no takeover coordinator appeared before the deadline \
                 (standby rank {s} may have died with the coordinator)"
            ),
            SessionError::Plan(detail) => write!(f, "{detail}"),
            SessionError::Exhausted(e) => write!(f, "recovery rendezvous: {e}"),
            SessionError::GaveUp => write!(f, "recovery attempts exhausted"),
            SessionError::Store { during, error } => write!(f, "cannot {during}: {error}"),
            #[cfg(test)]
            SessionError::Killed(step) => write!(f, "killed at {step:?}"),
        }
    }
}

impl std::error::Error for SessionError {}

/// The transitions a fault can land between, in protocol order. Fault
/// injection drops a session at one of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// A follower joined (or re-joined through a listener) and holds the
    /// peer table.
    Joined,
    /// A joining follower received its `PLAN`.
    Planned,
    /// A follower received its `CTRL` frame.
    Configured,
    /// A survivor re-joined over its control link and holds the new table.
    Rejoined,
    /// The acting coordinator collected every rank into a peer table.
    Rendezvoused,
    /// The coordinator shipped its first `PLAN` of the epoch.
    Shipped,
    /// The control replica is committed; the advertisement is not.
    Replicated,
    /// The advertisement is published; no `CTRL` frame is sent.
    Advertised,
    /// Every `CTRL` frame of the epoch is sent.
    Published,
    /// A rank's data plane faulted; nothing is repaired yet.
    Faulted,
    /// The control plane is lost and an election starts.
    Electing,
    /// The standby advertised its takeover listener and has not yet
    /// collected anyone.
    TookOver,
    /// The mesh is built: the session is running.
    Meshed,
}

#[cfg(test)]
thread_local! {
    /// The step at which fault injection drops this thread's session.
    pub(crate) static KILL_AT: std::cell::Cell<Option<Step>> = const { std::cell::Cell::new(None) };
}

/// Mark the transition to `step`: a no-op, except under fault injection.
#[inline]
fn at(step: Step) -> Result<(), SessionError> {
    #[cfg(test)]
    if KILL_AT.with(|k| k.get()) == Some(step) {
        return Err(SessionError::Killed(step));
    }
    let _ = step;
    Ok(())
}

/// Where a session goes after [`start`]: rank 0 of a fresh job ships the
/// plans, every other rank (and a respawned rank 0 of an armed job)
/// joined and holds its plan.
#[derive(Debug)]
pub enum Start {
    /// Rank 0 collected every follower; it loads the input next.
    Shipping(Shipping),
    /// This rank joined the acting coordinator and holds its plan.
    Joined(Joined),
}

/// Joining: bind this rank's data listener, then either rendezvous as
/// rank 0 or find and join the acting coordinator.
///
/// A prior rank-0 incarnation leaves its advertisement in the checkpoint
/// store (the launcher wipes the store only at job start), so rank 0
/// finding one is a *respawn*: the standby is taking over (or already
/// has), and rank 0 rejoins the advertised coordinator as a plain
/// follower instead of rendezvousing anew. Rank 0 rendezvouses before
/// loading: followers dial under the (short) connect deadline, which must
/// not also have to cover a long graph load.
pub fn start(spec: SessionSpec) -> Result<Start, SessionError> {
    let store = spec.store()?;
    let (listener, data_addr) = spec.bind_data()?;
    let respawned = store
        .as_ref()
        .is_some_and(|s| matches!(s.read_advertisement(), Ok(Some(_))));
    if spec.rank == 0 && !respawned {
        let coordinator =
            Coordinator::rendezvous(spec.coordinator, spec.ranks, data_addr, spec.bootstrap())?;
        at(Step::Rendezvoused)?;
        return Ok(Start::Shipping(Shipping {
            spec,
            store,
            coordinator,
            listener,
        }));
    }
    if spec.rank == 0 {
        eprintln!("pcgraph: rank 0: prior incarnation detected; rejoining as a follower");
    }
    let (mut link, acting) = join(&spec, store.as_ref(), data_addr, None)?;
    at(Step::Joined)?;
    let plan = link.recv_plan()?;
    at(Step::Planned)?;
    Ok(Start::Joined(Joined {
        spec,
        store,
        link,
        acting,
        plan,
        listener,
    }))
}

/// The join loop: find the acting coordinator and join it, retrying
/// under a jittered backoff until the deadline. `following` is the
/// control state of a survivor following a takeover: then only an
/// advertisement newer than that state counts (the dead coordinator's
/// own is stale) and the survivor keeps its partition (`NEEDS_PLAN`
/// clear). Otherwise this is a fresh process: it needs its plan, and
/// falls back to the `--coordinator` address while nothing (newer) is
/// advertised — except rank 0, which must never dial its own dead
/// incarnation. Each retry is a fresh connection and a fresh
/// advertisement read, in case the coordinator moved; a respawned rank
/// may arrive while the cluster is still detecting the failure it
/// replaces, and the acting coordinator only drains the rendezvous
/// backlog once its own data plane faults.
fn join(
    spec: &SessionSpec,
    store: Option<&Store>,
    data_addr: SocketAddr,
    following: Option<&CtrlState>,
) -> Result<(Follower, usize), SessionError> {
    let rank = spec.rank;
    let bopts = spec.bootstrap();
    let deadline = Instant::now() + bopts.connect_timeout.max(bopts.io_timeout);
    let mut backoff = Backoff::for_connect(rank as u64);
    let mut attempt = 0u32;
    loop {
        let mut target = (following.is_none() && rank != 0).then_some((spec.coordinator, 0));
        if let Some(Ok(Some(ad))) = store.map(Store::read_advertisement) {
            if ad.acting as usize != rank && following.is_none_or(|s| ad.epoch > s.epoch) {
                target = Some((ad.addr, ad.acting as usize));
            }
        }
        if let Some((addr, acting)) = target {
            attempt += 1;
            let flags = if following.is_some() {
                0
            } else {
                JOIN_NEEDS_PLAN
            };
            match Follower::join_with(addr, rank, data_addr, flags, bopts) {
                Ok(link) => return Ok((link, acting)),
                Err(e) if !spec.recovery() => return Err(e.into()),
                Err(e) => {
                    eprintln!("pcgraph: rank {rank}: join attempt {attempt} failed ({e}); retrying")
                }
            }
        }
        let now = Instant::now();
        if now >= deadline {
            return Err(SessionError::NoCoordinator {
                rank,
                standby: following.map(|s| s.standby),
            });
        }
        backoff.sleep(deadline - now);
    }
}

/// Rank 0 of a fresh job between the rendezvous and the plan shipping.
#[derive(Debug)]
pub struct Shipping {
    spec: SessionSpec,
    store: Option<Store>,
    coordinator: Coordinator,
    listener: MeshListener,
}

impl Shipping {
    /// Ship every follower its plan, `encode(r)` being rank `r`'s, then
    /// (failover armed) publish the control state, and build the mesh. `n`
    /// is the job's vertex count, part of the control replica's identity.
    ///
    /// With failover armed rank 0's own plan is encoded too — the replica
    /// must let a takeover coordinator re-ship a respawned rank 0's slice
    /// (and rebuild the full graph for `--verify`) without ever seeing the
    /// input. It is encoded on a thread of its own while the followers'
    /// plans are encoded and shipped, and each replica plan file is
    /// written by the thread that encoded it. The plans are kept only when
    /// recovery may re-ship them.
    pub fn ship(
        self,
        n: usize,
        encode: impl Fn(usize) -> Vec<u8> + Sync,
    ) -> Result<Session, SessionError> {
        let Shipping {
            spec,
            store,
            mut coordinator,
            listener,
        } = self;
        let ranks = spec.ranks;
        let recovery = spec.recovery();
        let publisher = store.map(|store| Publisher::new(&spec, store, n));
        let started = Instant::now();
        let mut plans: Vec<Vec<u8>> = vec![Vec::new()];
        let mut shipped = vec![false; ranks];
        let mut digests = vec![0u64; ranks];
        let persisted = |r: Result<u64, CkptError>| {
            r.map_err(|e| SessionError::store("persist control replica", e))
        };
        std::thread::scope(|s| {
            let store = publisher.as_ref().map(|p| &p.store);
            let own = store.map(|store| {
                s.spawn(|| {
                    let plan = encode(0);
                    let digest = store.write_replica_plan(0, &plan);
                    (plan, digest)
                })
            });
            for r in 1..ranks {
                let plan = encode(r);
                match coordinator.send(r, TAG_PLAN, &plan) {
                    Ok(()) => shipped[r] = true,
                    Err(e) if !recovery => return Err(SessionError::from(e)),
                    // The rank died between joining and receiving its
                    // plan. With recovery armed this is survivable: the
                    // launcher is respawning it, the data plane will
                    // fault, and the recovery rendezvous re-ships this
                    // cached plan.
                    Err(e) => eprintln!(
                        "pcgraph: rank 0: cannot ship plan to rank {r} ({e}); \
                         deferring to recovery"
                    ),
                }
                if r == 1 {
                    at(Step::Shipped)?;
                }
                if let Some(store) = store {
                    digests[r] = persisted(store.write_replica_plan(r as u32, &plan))?;
                }
                plans.push(if recovery { plan } else { Vec::new() });
            }
            if let Some(own) = own {
                let (plan, digest) = own.join().expect("rank 0's plan encoder panicked");
                (plans[0], digests[0]) = (plan, persisted(digest)?);
            }
            Ok(())
        })?;
        // The control state is durable and every follower holds it before
        // the run starts, so rank 0's very first death is survivable.
        if let Some(publisher) = &publisher {
            publisher.publish(
                &mut coordinator,
                &plans,
                Some((&digests, started)),
                &shipped,
            )?;
        }
        let role = Role::Coordinator {
            coordinator,
            plans: recovery.then_some(plans),
        };
        Session::running(spec, role, publisher, listener)
    }
}

/// A follower between receiving its plan and building its mesh.
#[derive(Debug)]
pub struct Joined {
    spec: SessionSpec,
    store: Option<Store>,
    link: Follower,
    acting: usize,
    plan: Vec<u8>,
    listener: MeshListener,
}

impl Joined {
    /// This rank's shipped plan.
    pub fn plan(&self) -> &[u8] {
        &self.plan
    }

    /// Receive the replicated control state (failover armed) and build
    /// the mesh. `n` is the job's vertex count, part of the control
    /// replica's identity. The coordinator follows every plan with the
    /// `CTRL` frame: the epoch, who the standby is, and — on the
    /// standby's own frame — every rank's plan but this one, which the
    /// standby keeps from its `PLAN`.
    pub fn run(self, n: usize) -> Result<Session, SessionError> {
        let Joined {
            spec,
            store,
            mut link,
            acting,
            plan,
            listener,
        } = self;
        let ctrl = match store.is_some() {
            true => Some(link.recv_ctrl(Some(plan))?),
            false => None,
        };
        at(Step::Configured)?;
        let publisher = store.map(|store| Publisher::new(&spec, store, n));
        let role = Role::Follower { link, ctrl, acting };
        Session::running(spec, role, publisher, listener)
    }
}

/// The control state an acting coordinator publishes every epoch: the
/// store carrying the replica and the advertisement, and the replica's
/// identity.
#[derive(Debug)]
struct Publisher {
    store: Store,
    id: RunId,
    standby: Option<usize>,
    ranks: usize,
}

impl Publisher {
    fn new(spec: &SessionSpec, store: Store, n: usize) -> Self {
        Publisher {
            store,
            id: RunId {
                workers: spec.ranks as u32,
                n: n as u64,
                algo: spec.replica_tag.clone(),
            },
            standby: spec.standby,
            ranks: spec.ranks,
        }
    }

    /// Advertise `acting`'s rendezvous listener at `epoch`.
    fn advertise(&self, epoch: u32, acting: usize, addr: SocketAddr) -> Result<(), SessionError> {
        let ad = Advertisement {
            epoch,
            acting: acting as u32,
            addr,
        };
        self.store
            .advertise(&ad)
            .map_err(|e| SessionError::store("publish coordinator advertisement", e))
    }

    /// Publish this epoch's control state: pick the standby, commit the
    /// replica, publish the advertisement, and ship a `CTRL` frame to
    /// every follower — plans ride only on the standby's frame, without
    /// the standby's own when `shipped` says it was just sent that as
    /// `PLAN`. `written` holds the digests of plan files the bootstrap
    /// already wrote (each on the thread that encoded its plan) and when
    /// it started on them; `None` writes the files from `plans` now. Each
    /// step is durable before the next starts: plan files, `CTRL` record,
    /// advertisement, frames — so a torn publish leaves the previous epoch
    /// intact. A dead control link is tolerated (the next recovery epoch
    /// repairs it). Ends with the `failover:` report line on stderr.
    fn publish(
        &self,
        coordinator: &mut Coordinator,
        plans: &[Vec<u8>],
        written: Option<(&[u64], Instant)>,
        shipped: &[bool],
    ) -> Result<(), SessionError> {
        let started = written.map_or_else(Instant::now, |(_, t)| t);
        let acting = coordinator.acting_rank();
        let epoch = coordinator.epoch();
        // The designated standby when it names someone else, otherwise the
        // lowest rank that is not acting (rank 1 at bootstrap; rank 0
        // itself once a takeover made it a plain follower).
        let standby = match self.standby {
            Some(r) if r != acting => r,
            _ => (0..self.ranks).find(|&r| r != acting).expect("ranks >= 2"),
        } as u32;
        match written {
            Some((digests, _)) => self.store.commit_replica(&self.id, epoch, standby, digests),
            None => self.store.write_replica(&self.id, epoch, standby, plans),
        }
        .map_err(|e| SessionError::store("persist control replica", e))?;
        at(Step::Replicated)?;
        self.advertise(epoch, acting, coordinator.control_addr()?)?;
        at(Step::Advertised)?;
        let replica_ms = started.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        for (rank, e) in coordinator.send_ctrl(standby, plans, shipped) {
            eprintln!(
                "pcgraph: rank {acting}: cannot ship CTRL to rank {rank} ({e}); \
                 deferring to the next recovery epoch"
            );
        }
        let bytes: usize = plans.iter().map(Vec::len).sum();
        eprintln!(
            "failover: replica {:.1} MiB ({} plans) in {replica_ms:.1} ms, ctrl {:.1} ms",
            bytes as f64 / (1u64 << 20) as f64,
            self.ranks,
            t0.elapsed().as_secs_f64() * 1e3
        );
        at(Step::Published)
    }
}

/// What this rank is in the control plane.
#[derive(Debug)]
enum Role {
    /// The acting coordinator — rank 0 at launch, or a standby that took
    /// over. Keeps the control links and the rendezvous listener for the
    /// whole run, and every rank's encoded plan when recovery is armed, so
    /// a respawned rank's partition is re-shipped without the input.
    Coordinator {
        coordinator: Coordinator,
        plans: Option<Vec<Vec<u8>>>,
    },
    /// Any other rank: the control link (a survivor re-joins over it),
    /// the latest replicated control state (failover armed; on the
    /// standby it holds every rank's plan), and the acting coordinator's
    /// rank.
    Follower {
        link: Follower,
        ctrl: Option<CtrlState>,
        acting: usize,
    },
}

/// A running rank of a multi-process job; see the [module docs](self).
#[derive(Debug)]
pub struct Session {
    spec: SessionSpec,
    role: Role,
    /// Failover armed: where and as what the control state is published.
    publisher: Option<Publisher>,
    /// The engine config over the current mesh.
    config: Config,
    /// Recovery attempts so far, faults and failed rendezvous alike.
    attempts: u32,
    /// Wall-clock µs this rank spent repairing.
    recovery_us: u64,
}

impl Session {
    /// Joining → Running: the mesh over the bootstrap's peer table.
    fn running(
        spec: SessionSpec,
        role: Role,
        publisher: Option<Publisher>,
        listener: MeshListener,
    ) -> Result<Session, SessionError> {
        let mut session = Session {
            spec,
            role,
            publisher,
            config: Config::default(),
            attempts: 0,
            recovery_us: 0,
        };
        session.mesh(listener)?;
        Ok(session)
    }

    /// The engine config over the current mesh. Its rank role carries the
    /// acting coordinator as gather root and the control-plane epoch as
    /// the recovery count.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Whether this rank is the acting coordinator (it holds the merged
    /// results after the gather).
    pub fn is_acting(&self) -> bool {
        matches!(self.role, Role::Coordinator { .. })
    }

    /// Every rank's encoded plan, on an acting coordinator that keeps
    /// them (recovery armed).
    pub fn plans(&self) -> Option<&[Vec<u8>]> {
        match &self.role {
            Role::Coordinator { plans, .. } => plans.as_deref(),
            Role::Follower { .. } => None,
        }
    }

    /// Run `run` over the current mesh. With recovery armed, a panic
    /// whose typed [`TransportError`] the mesh recorded is a data-plane
    /// fault: [`Session::recover`] repairs the cluster and `run` is
    /// entered again (the engine restores the last committed checkpoint).
    /// Any other panic, and a fault past the attempt budget, resumes
    /// unchanged.
    pub fn execute<V>(&mut self, run: impl Fn(&Config) -> V) -> Result<V, SessionError> {
        use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
        if !self.spec.recovery() {
            return Ok(run(&self.config));
        }
        loop {
            let payload = match catch_unwind(AssertUnwindSafe(|| run(&self.config))) {
                Ok(out) => return Ok(out),
                Err(payload) => payload,
            };
            let role = self.config.dist.as_ref().expect("a session runs a rank");
            let Some(fault) = role.transport.take_fault() else {
                resume_unwind(payload); // not a transport failure
            };
            match self.recover(&fault) {
                Err(SessionError::GaveUp) => resume_unwind(payload),
                r => r?,
            }
        }
    }

    /// Faulted → Running: tear the mesh down and run recovery epochs until
    /// one completes. A rendezvous that itself fails — the acting
    /// coordinator died between re-shipping plans and the mesh, or
    /// another rank fell over mid-epoch — is a fresh fault, not fatal: go
    /// around again so the election path can still run. Every epoch costs
    /// one attempt of a budget that scales with the cluster (each rank may
    /// be respawned up to the respawn budget, and every respawn implies
    /// one cluster-wide epoch).
    pub fn recover(&mut self, fault: &TransportError) -> Result<(), SessionError> {
        let rank = self.spec.rank;
        let max = (self.spec.deadlines.max_respawns)
            .saturating_mul(self.spec.ranks as u32)
            .max(1);
        self.attempts += 1;
        if self.attempts > max {
            eprintln!("pcgraph: rank {rank}: giving up after {max} recovery attempts");
            return Err(SessionError::GaveUp);
        }
        eprintln!(
            "pcgraph: rank {rank}: data-plane failure ({fault}); recovering \
             (attempt {}/{max})",
            self.attempts
        );
        // Drop every handle on the failed mesh first: closing its sockets
        // is what unblocks peers still waiting in it.
        self.config.dist = None;
        at(Step::Faulted)?;
        let t0 = Instant::now();
        loop {
            match self.epoch() {
                Ok(()) => break,
                Err(SessionError::Transport(e)) => {
                    self.attempts += 1;
                    if self.attempts > max {
                        return Err(SessionError::Exhausted(e));
                    }
                    eprintln!(
                        "pcgraph: rank {rank}: recovery rendezvous failed ({e}); retrying \
                         (attempt {}/{max})",
                        self.attempts
                    );
                }
                Err(e) => return Err(e),
            }
        }
        self.recovery_us += t0.elapsed().as_micros() as u64;
        if let Some(role) = self.config.dist.as_mut() {
            role.recovery_us = self.recovery_us;
        }
        Ok(())
    }

    /// One recovery epoch: Coordinating on the acting coordinator;
    /// Rejoining elsewhere, and Electing when the control plane turns out
    /// lost.
    fn epoch(&mut self) -> Result<(), SessionError> {
        let (listener, data_addr) = self.spec.bind_data()?;
        let Role::Follower { link, ctrl, .. } = &mut self.role else {
            return self.coordinate(listener, data_addr);
        };
        // The control link lives in the acting coordinator's process: a
        // failed rejoin or a lost CTRL frame means the coordinator is
        // gone. A data-plane fault that names the acting rank does not: a
        // live coordinator that saw another rank die tears its mesh down
        // first, and whoever was waiting on it (everyone, at the next
        // exchange) sees that disconnect instead of the dead rank's. The
        // control link tells the two apart — it fails at once when the
        // coordinator's process is gone.
        let armed = ctrl.is_some();
        let lost = match link.rejoin(data_addr) {
            // The coordinator follows every recovery PEERS with a fresh
            // CTRL frame.
            Ok(_) if armed => {
                at(Step::Rejoined)?;
                match link.recv_ctrl(None) {
                    Ok(state) => {
                        *ctrl = Some(state);
                        at(Step::Configured)?;
                        None
                    }
                    Err(e) => Some(format!("control plane lost after rejoin ({e})")),
                }
            }
            Ok(_) => None,
            Err(e) if armed => Some(format!("control plane lost during recovery ({e})")),
            Err(e) => return Err(e.into()),
        };
        match lost {
            None => self.mesh(listener),
            Some(why) => {
                eprintln!(
                    "pcgraph: rank {}: {why}; electing a new coordinator",
                    self.spec.rank
                );
                self.elect(listener, data_addr)
            }
        }
    }

    /// Coordinator election after the acting coordinator died. No
    /// consensus round is needed: every armed rank already agreed (via the
    /// last `CTRL` frame) on who the standby is, so the standby takes over
    /// — it advertises a fresh rendezvous listener under the epoch the
    /// rendezvous will establish *before* blocking in it, and runs a
    /// coordinator epoch — and everyone else follows that advertisement.
    /// Single-failure model: if the standby died in the same breath, the
    /// join deadline expires with [`SessionError::NoCoordinator`].
    fn elect(&mut self, listener: MeshListener, data_addr: SocketAddr) -> Result<(), SessionError> {
        at(Step::Electing)?;
        let rank = self.spec.rank;
        let Role::Follower {
            ctrl: Some(state), ..
        } = &self.role
        else {
            unreachable!("only armed followers elect");
        };
        let publisher = self.publisher.as_ref().expect("failover is armed");
        if state.standby as usize != rank {
            eprintln!(
                "pcgraph: rank {rank}: coordinator lost; waiting for standby rank {}",
                state.standby
            );
            let (mut link, acting) =
                join(&self.spec, Some(&publisher.store), data_addr, Some(state))?;
            at(Step::Joined)?;
            // A takeover coordinator dying between PEERS and CTRL
            // surfaces here, and the caller's retry re-enters the
            // election.
            let ctrl = link.recv_ctrl(None)?;
            at(Step::Configured)?;
            self.role = Role::Follower {
                link,
                ctrl: Some(ctrl),
                acting,
            };
            return self.mesh(listener);
        }
        eprintln!(
            "pcgraph: rank {rank}: coordinator lost; standby taking over at epoch {}",
            state.epoch + 1
        );
        // The plans rode on this rank's own CTRL frame; fall back to the
        // persisted replica (e.g. the CTRL refresh after a recovery was
        // lost in the coordinator's death).
        let plans = state
            .plans
            .clone()
            .or_else(|| match publisher.store.read_replica(&publisher.id) {
                Ok(r) => r.map(|r| r.plans),
                Err(e) => {
                    eprintln!("pcgraph: rank {rank}: cannot read control replica: {e}");
                    None
                }
            })
            .unwrap_or_default();
        let ranks = self.spec.ranks;
        if plans.len() != ranks {
            return Err(SessionError::Plan(format!(
                "rank {rank}: control replica holds {} plans for {ranks} ranks; cannot take over",
                plans.len()
            )));
        }
        let bind = (self.spec.bind, 0).into();
        let epoch = state.epoch;
        let coordinator = Coordinator::takeover(bind, ranks, rank, epoch, self.spec.bootstrap())?;
        publisher.advertise(epoch + 1, rank, coordinator.control_addr()?)?;
        at(Step::TookOver)?;
        self.role = Role::Coordinator {
            coordinator,
            plans: Some(plans),
        };
        self.coordinate(listener, data_addr)
    }

    /// The coordinator epoch: a recovery rendezvous, the plan re-ship to
    /// every rank that joined needing one, the publish (failover armed),
    /// and the mesh. A respawned rank that died again before its plan went
    /// out gets the same policy as at bootstrap: the mesh will fault and
    /// the next epoch retries.
    fn coordinate(
        &mut self,
        listener: MeshListener,
        data_addr: SocketAddr,
    ) -> Result<(), SessionError> {
        let Role::Coordinator { coordinator, plans } = &mut self.role else {
            unreachable!("only the acting coordinator coordinates");
        };
        let needs_plan = coordinator.recover(data_addr)?;
        at(Step::Rendezvoused)?;
        let plans = plans.as_ref().expect("recovery keeps the encoded plans");
        let acting = coordinator.acting_rank();
        let mut shipped = vec![false; plans.len()];
        for r in (0..plans.len()).filter(|&r| needs_plan[r] && r != acting) {
            match coordinator.send(r, TAG_PLAN, &plans[r]) {
                Ok(()) => shipped[r] = true,
                Err(e) => eprintln!(
                    "pcgraph: rank {acting}: cannot re-ship plan to rank {r} ({e}); \
                     deferring to the next recovery epoch"
                ),
            }
            at(Step::Shipped)?;
        }
        // Refresh the replicated control state at the new epoch: the
        // standby may have been the casualty, and respawned ranks hold no
        // CTRL state at all yet.
        if let Some(publisher) = &self.publisher {
            publisher.publish(coordinator, plans, None, &shipped)?;
        }
        self.mesh(listener)
    }

    /// The mesh step: build this rank's data-plane mesh from the current
    /// peer table, and the engine config over it — gathering to the
    /// acting coordinator and counting the control plane's epoch.
    fn mesh(&mut self, listener: MeshListener) -> Result<(), SessionError> {
        let (peers, acting, epoch) = match &self.role {
            Role::Coordinator { coordinator, .. } => (
                coordinator.peers(),
                coordinator.acting_rank(),
                coordinator.epoch(),
            ),
            Role::Follower { link, acting, .. } => (link.peers(), *acting, link.epoch()),
        };
        let opts = TcpOptions {
            connect_timeout: self.spec.deadlines.connect,
            ..TcpOptions::default()
        };
        let tcp = Tcp::mesh(self.spec.rank, peers.to_vec(), listener, opts)?;
        let template = &self.spec.config;
        let mut config = Config {
            spin_budget: template.spin_budget,
            ckpt: template.ckpt.clone(),
            trace: template.trace,
            ..Config::rank(self.spec.ranks, self.spec.rank, Arc::new(tcp))
        };
        let role = config.dist.as_mut().expect("a rank config");
        role.gather_root = acting;
        role.recoveries = epoch as u64;
        role.recovery_us = self.recovery_us;
        self.config = config;
        at(Step::Meshed)
    }
}

#[cfg(test)]
mod tests;
