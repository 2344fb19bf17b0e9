//! Deterministic fault injection: every rank of an `M`-rank job, dropped
//! at every transition of the bootstrap and of one recovery epoch, with
//! no engine and no process in sight. Ranks are threads over loopback,
//! the store is one temporary directory, and a dropped session closes
//! every socket it held, as a killed process would. The harness then
//! plays the launcher: any rank whose session ends in an error is
//! started afresh, within a respawn budget.

use super::*;
use pc_bsp::CkptPolicy;
use std::net::Ipv4Addr;
use std::path::Path;
use std::sync::{mpsc, Barrier};

/// Respawns the harness grants each rank, the launcher's default.
const RESPAWNS: u32 = 3;
/// Cases run at once: each is a few threads mostly waiting on a socket.
const CONCURRENT_CASES: usize = 6;
/// The vertex count in the replica's identity.
const N: usize = 1000;

/// Short deadlines, so a case whose peer is dead spends about a second
/// detecting it, with room for a loaded box to stretch every step.
fn deadlines() -> Deadlines {
    Deadlines {
        connect: Duration::from_millis(500),
        join: Duration::from_secs(60),
        max_respawns: RESPAWNS,
        io: Duration::from_millis(1200),
    }
}

/// Rank `r`'s plan: distinct bytes per rank.
fn plan(r: usize) -> Vec<u8> {
    (0..32 + 5 * r).map(|i| (i * 7 + r) as u8).collect()
}

/// Which epoch the kill lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// The bootstrap.
    Bootstrap,
    /// The recovery epoch opened by the last rank's death once the
    /// cluster runs (it is respawned, and re-shipped its plan).
    Recovery,
    /// The election opened by the coordinator's death once the cluster
    /// runs (it is respawned, and rejoins as a follower).
    Takeover,
}

#[derive(Debug, Clone, Copy)]
struct Case {
    ranks: usize,
    phase: Phase,
    victim: usize,
    step: Step,
}

impl Case {
    /// The case's own rendezvous port, below the kernel's ephemeral range:
    /// a port picked by binding port 0 and closing it can be handed to
    /// another case's socket before rank 0 binds it, and concurrent cases
    /// must never dial each other.
    fn port(&self) -> u16 {
        let phase = [Phase::Bootstrap, Phase::Recovery, Phase::Takeover]
            .iter()
            .position(|&p| p == self.phase)
            .unwrap();
        let step = STEPS.iter().position(|&s| s == self.step).unwrap();
        (21_000 + 200 * phase + 64 * (self.ranks - 2) + 16 * self.victim + step) as u16
    }

    /// The rank whose death opens the epoch the kill lands in.
    fn opening(&self) -> Option<usize> {
        match self.phase {
            Phase::Bootstrap => None,
            Phase::Recovery => Some(self.ranks - 1),
            Phase::Takeover => Some(0),
        }
    }
}

/// How one rank's part of a case ended.
struct End {
    /// The running session after a data-plane round every rank took part
    /// in — kept alive until every rank is done — or the error of the
    /// last incarnation the respawn budget allowed.
    last: Result<Session, SessionError>,
    /// Incarnations that ended in an error.
    errors: Vec<String>,
}

fn spec(case: &Case, rank: usize, coordinator: SocketAddr, dir: &Path) -> SessionSpec {
    SessionSpec {
        ranks: case.ranks,
        rank,
        coordinator,
        bind: IpAddr::V4(Ipv4Addr::LOCALHOST),
        standby: None,
        replica_tag: "ctrl/test/".to_string(),
        deadlines: deadlines(),
        config: Config {
            ckpt: Some(CkptPolicy {
                every: 1,
                dir: dir.to_path_buf(),
            }),
            ..Config::default()
        },
    }
}

/// Joining → Running: ship or receive the plans and build the mesh.
fn boot(spec: SessionSpec) -> Result<Session, SessionError> {
    match start(spec)? {
        Start::Shipping(shipping) => shipping.ship(N, plan),
        Start::Joined(joined) => {
            let rank = joined.spec.rank;
            if joined.plan() != plan(rank) {
                return Err(SessionError::Plan(format!(
                    "rank {rank} was shipped a foreign plan"
                )));
            }
            joined.run(N)
        }
    }
}

/// One data-plane round over the session's mesh: what the engine would
/// run, without the engine. It fails when any peer is gone or on
/// another mesh.
fn round(session: &Session) -> Result<(), TransportError> {
    let role = session.config().dist.as_ref().expect("a rank config");
    let (tcp, rank) = (&role.transport, role.rank);
    tcp.try_sync(rank, [0, 0])?;
    tcp.try_take_all_into(rank, &mut Vec::new())?;
    tcp.try_flush(rank)
}

/// Every transition, in protocol order.
const STEPS: [Step; 13] = [
    Step::Joined,
    Step::Planned,
    Step::Configured,
    Step::Rejoined,
    Step::Rendezvoused,
    Step::Shipped,
    Step::Replicated,
    Step::Advertised,
    Step::Published,
    Step::Faulted,
    Step::Electing,
    Step::TookOver,
    Step::Meshed,
];

fn kill_at(step: Option<Step>) {
    KILL_AT.with(|k| k.set(step));
}

/// Every incarnation of one rank, the harness playing the launcher.
fn rank_life(case: Case, spec: SessionSpec, settled: &Barrier) -> End {
    let rank = spec.rank;
    let victim = rank == case.victim;
    let mut errors = Vec::new();
    for incarnation in 0.. {
        let first = incarnation == 0;
        let kill = Some(case.step);
        // A bootstrap victim dies in its first incarnation; a victim that
        // opened the epoch, in its respawn; any other victim, once the
        // epoch opens.
        kill_at(match case.phase {
            Phase::Bootstrap => kill.filter(|_| victim && first),
            _ => kill.filter(|_| victim && incarnation == 1 && case.opening() == Some(rank)),
        });
        let mut life = boot(spec.clone());
        if first && case.phase != Phase::Bootstrap {
            // The whole cluster runs before the epoch opens.
            settled.wait();
            if case.opening() == Some(rank) {
                life = life.and_then(|_| Err(SessionError::Plan("opening death".to_string())));
            } else if victim {
                kill_at(kill);
            }
        }
        let last = life.and_then(|mut session| loop {
            match round(&session) {
                Ok(()) => break Ok(session),
                Err(fault) => session.recover(&fault)?,
            }
        });
        kill_at(None);
        match last {
            Ok(session) => {
                return End {
                    last: Ok(session),
                    errors,
                }
            }
            Err(e) => {
                errors.push(e.to_string());
                // Where no coordinator can appear, a respawn would only
                // wait out the same deadline again.
                let hopeless = ends_without_coordinator(&case)
                    && matches!(e, SessionError::NoCoordinator { .. });
                if hopeless || errors.len() as u32 > RESPAWNS {
                    return End {
                        last: Err(e),
                        errors,
                    };
                }
            }
        }
    }
    unreachable!()
}

/// Run one case under a watchdog; every rank's end, in rank order.
fn run_case(case: Case) -> Vec<End> {
    let dir = std::env::temp_dir().join(format!(
        "pc_dist_session_{:?}_{}_{}_{:?}_{}",
        case.phase,
        case.ranks,
        case.victim,
        case.step,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let coordinator = SocketAddr::from(([127, 0, 0, 1], case.port()));
    let (tx, rx) = mpsc::channel();
    let specs: Vec<SessionSpec> = (0..case.ranks)
        .map(|rank| spec(&case, rank, coordinator, &dir))
        .collect();
    let watched = std::thread::spawn(move || {
        let settled = Barrier::new(case.ranks);
        let ends = std::thread::scope(|s| {
            let lives: Vec<_> = specs
                .into_iter()
                .map(|spec| s.spawn(|| rank_life(case, spec, &settled)))
                .collect();
            lives
                .into_iter()
                .map(|h| h.join().expect("rank thread panicked"))
                .collect::<Vec<End>>()
        });
        let _ = tx.send(ends);
    });
    let ends = match rx.recv_timeout(Duration::from_secs(120)) {
        Ok(ends) => ends,
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("{case:?}: still blocked after 120 s"),
        Err(mpsc::RecvTimeoutError::Disconnected) => match watched.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("the case neither ended nor panicked"),
        },
    };
    let _ = std::fs::remove_dir_all(&dir);
    ends
}

/// The cluster's view from one running session: `(epoch, acting,
/// peers)`.
fn view(session: &Session) -> (u64, usize, Vec<SocketAddr>) {
    let role = session.config().dist.as_ref().expect("a rank config");
    (
        role.recoveries,
        role.gather_root,
        role.transport.addrs().to_vec(),
    )
}

/// Run every case of `phase` at `M` ∈ {2, 3} and check how each ends.
fn every_fault(phase: Phase) {
    let mut cases = Vec::new();
    for ranks in [2, 3] {
        let victims = match phase {
            Phase::Takeover => 1..ranks,
            _ => 0..ranks,
        };
        for victim in victims {
            for step in STEPS {
                cases.push(Case {
                    ranks,
                    phase,
                    victim,
                    step,
                });
            }
        }
    }
    for batch in cases.chunks(CONCURRENT_CASES) {
        std::thread::scope(|s| {
            let runs: Vec<_> = batch
                .iter()
                .map(|&case| s.spawn(move || (case, run_case(case))))
                .collect();
            for run in runs {
                let (case, ends) = run.join().expect("a case panicked");
                check(case, &ends);
            }
        });
    }
}

/// Whether the case fired its kill.
fn fired(case: &Case, ends: &[End]) -> bool {
    let killed = format!("killed at {:?}", case.step);
    ends[case.victim].errors.contains(&killed)
}

/// The documented typed error a case may end in: the coordinator dying
/// after it advertised itself but before any follower held the control
/// state (nobody can take over, and its respawn waits for a takeover), or
/// the standby dying after the coordinator before its own takeover
/// published the control state (nobody is left to take over).
fn ends_without_coordinator(case: &Case) -> bool {
    let standby = 1;
    match case.phase {
        Phase::Bootstrap => case.victim == 0 && case.step == Step::Advertised,
        Phase::Takeover => {
            case.victim == standby
                && matches!(
                    case.step,
                    Step::Faulted
                        | Step::Electing
                        | Step::TookOver
                        | Step::Rendezvoused
                        | Step::Shipped
                        | Step::Replicated
                        | Step::Advertised
                )
        }
        // With two ranks the epoch's opening death was the standby's: its
        // respawn holds no control state until the epoch publishes one.
        Phase::Recovery => {
            case.ranks == 2
                && case.victim == 0
                && matches!(
                    case.step,
                    Step::Faulted
                        | Step::Rendezvoused
                        | Step::Shipped
                        | Step::Replicated
                        | Step::Advertised
                )
        }
    }
}

fn check(case: Case, ends: &[End]) {
    let summary: Vec<String> = ends
        .iter()
        .enumerate()
        .map(|(r, e)| {
            format!(
                "rank {r}: {} after {:?}",
                match &e.last {
                    Ok(s) => format!("running {:?}", view(s)),
                    Err(err) => format!("failed ({err})"),
                },
                e.errors
            )
        })
        .collect();
    let summary = summary.join("; ");
    if ends_without_coordinator(&case) && fired(&case, ends) {
        assert!(
            ends.iter()
                .any(|e| matches!(e.last, Err(SessionError::NoCoordinator { .. }))),
            "{case:?} should end without a coordinator: {summary}"
        );
        return;
    }
    let views: Vec<_> = ends
        .iter()
        .map(|e| match &e.last {
            Ok(session) => view(session),
            Err(err) => panic!("{case:?} should end in agreement, but {err}: {summary}"),
        })
        .collect();
    assert!(
        views.windows(2).all(|w| w[0] == w[1]),
        "{case:?}: the ranks disagree: {summary}"
    );
}

#[test]
fn deadlines_parse_once_with_defaults_and_typed_refusals() {
    let vars = |pairs: &'static [(&'static str, &'static str)]| {
        move |name: &str| {
            pairs
                .iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| v.to_string())
        }
    };
    assert_eq!(Deadlines::from_vars(vars(&[])), Ok(Deadlines::default()));
    let set = Deadlines::from_vars(vars(&[
        ("PC_DIST_CONNECT_TIMEOUT_MS", "400"),
        ("PC_DIST_JOIN_TIMEOUT_MS", "5000"),
        ("PC_DIST_MAX_RESPAWNS", "0"),
    ]))
    .unwrap();
    assert_eq!(set.connect, Duration::from_millis(400));
    assert_eq!(set.join, Duration::from_secs(5));
    assert_eq!(set.max_respawns, 0);
    assert_eq!(
        Deadlines::from_vars(vars(&[("PC_DIST_CONNECT_TIMEOUT_MS", "soon")])),
        Err("PC_DIST_CONNECT_TIMEOUT_MS expects milliseconds, got 'soon'".to_string())
    );
    assert_eq!(
        Deadlines::from_vars(vars(&[("PC_DIST_MAX_RESPAWNS", "-1")])),
        Err("PC_DIST_MAX_RESPAWNS expects a number, got '-1'".to_string())
    );
}

/// Every rank dropped at every transition of the bootstrap.
#[test]
fn session_survives_every_bootstrap_fault() {
    every_fault(Phase::Bootstrap);
}

/// Every rank dropped at every transition of a recovery epoch that
/// re-ships a respawned rank's plan.
#[test]
fn session_survives_every_recovery_fault() {
    every_fault(Phase::Recovery);
}

/// Every surviving rank dropped at every transition of the election
/// after the coordinator's death.
#[test]
fn session_survives_every_takeover_fault() {
    every_fault(Phase::Takeover);
}
