//! The agents' command stream, pinned from outside the driver: every
//! `RoutingAgent` input of a full run, in the order the driver makes them,
//! with the commands it produced. A recording wrapper folds each call's
//! node and input name, then each command's `{:?}`, then an end marker,
//! into one FNV-1a digest shared by every node of the run. A change to how
//! agents hand their commands over — or to the order the driver feeds them
//! — that moves a single command, or moves one across a call boundary,
//! moves the digest.

use std::fmt::{self, Write as _};
use std::sync::{Arc, Mutex};

use dsr_caching::dsr::DsrNode;
use dsr_caching::packet::{AgentCommand, AgentObservation, RoutingAgent};
use dsr_caching::prelude::*;
use dsr_caching::runner::CacheTraceBuf;
use dsr_caching::sim_core::SimRng;

/// FNV-1a over everything written into it, with a count of the calls and
/// commands folded.
struct Tape {
    hash: u64,
    calls: u64,
    commands: u64,
}

impl fmt::Write for Tape {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for &b in s.as_bytes() {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        Ok(())
    }
}

/// A routing agent that folds every input's commands into a shared tape.
struct Recorded<A> {
    inner: A,
    node: NodeId,
    tape: Arc<Mutex<Tape>>,
}

impl<A: RoutingAgent> Recorded<A>
where
    A::Packet: fmt::Debug,
{
    fn note(&self, input: &str, cmds: &[AgentCommand<A::Packet, A::Timer>]) {
        let mut tape = self.tape.lock().expect("tape");
        tape.calls += 1;
        tape.commands += cmds.len() as u64;
        writeln!(tape, "{} {input}", self.node).expect("hashing never fails");
        for cmd in cmds {
            writeln!(tape, "{cmd:?}").expect("hashing never fails");
        }
        tape.write_str("end\n").expect("hashing never fails");
    }
}

type Cmds<A> = Vec<AgentCommand<<A as RoutingAgent>::Packet, <A as RoutingAgent>::Timer>>;

impl<A: RoutingAgent> RoutingAgent for Recorded<A>
where
    A::Packet: fmt::Debug,
{
    type Packet = A::Packet;
    type Timer = A::Timer;

    fn start(&mut self, now: SimTime, out: &mut Cmds<A>) {
        let from = out.len();
        self.inner.start(now, out);
        self.note("start", &out[from..]);
    }

    fn originate(&mut self, dst: NodeId, bytes: usize, now: SimTime, out: &mut Cmds<A>) {
        let from = out.len();
        self.inner.originate(dst, bytes, now, out);
        self.note("originate", &out[from..]);
    }

    fn on_receive(&mut self, sender: NodeId, packet: A::Packet, now: SimTime, out: &mut Cmds<A>) {
        let from = out.len();
        self.inner.on_receive(sender, packet, now, out);
        self.note("receive", &out[from..]);
    }

    fn on_snoop(&mut self, tx: NodeId, packet: &A::Packet, now: SimTime, out: &mut Cmds<A>) {
        let from = out.len();
        self.inner.on_snoop(tx, packet, now, out);
        self.note("snoop", &out[from..]);
    }

    fn on_tx_failed(&mut self, packet: A::Packet, hop: NodeId, now: SimTime, out: &mut Cmds<A>) {
        let from = out.len();
        self.inner.on_tx_failed(packet, hop, now, out);
        self.note("tx_failed", &out[from..]);
    }

    fn on_timer(&mut self, timer: A::Timer, now: SimTime, out: &mut Cmds<A>) {
        let from = out.len();
        self.inner.on_timer(timer, now, out);
        self.note("timer", &out[from..]);
    }

    fn on_revival(&mut self, now: SimTime, out: &mut Cmds<A>) {
        let from = out.len();
        self.inner.on_revival(now, out);
        self.note("revival", &out[from..]);
    }

    fn buffered_uids(&self) -> Vec<u64> {
        self.inner.buffered_uids()
    }

    fn invariant_violation(&self, now: SimTime) -> Option<String> {
        self.inner.invariant_violation(now)
    }

    fn observe(&self, now: SimTime) -> Option<AgentObservation> {
        self.inner.observe(now)
    }

    fn set_decision_trace(&mut self, on: bool) {
        self.inner.set_decision_trace(on);
    }
}

/// Runs `cfg` over recorded agents (with cache-decision tracing on when
/// `traced`) and returns the tape's digest, calls and commands.
fn record<A: RoutingAgent + 'static>(
    cfg: ScenarioConfig,
    traced: bool,
    mut make: impl FnMut(NodeId, SimRng) -> A,
) -> (u64, u64, u64)
where
    A::Packet: fmt::Debug,
{
    let tape = Arc::new(Mutex::new(Tape { hash: 0xcbf2_9ce4_8422_2325, calls: 0, commands: 0 }));
    let shared = Arc::clone(&tape);
    let mut sim = Simulator::with_agents(cfg, "recorded", move |node, rng| Recorded {
        inner: make(node, rng),
        node,
        tape: Arc::clone(&shared),
    });
    if traced {
        sim.set_cachetrace(Arc::new(Mutex::new(CacheTraceBuf::default())));
    }
    let report = sim.try_run().expect("clean run");
    assert!(report.delivered > 0 && report.link_breaks > 0, "{report}");
    let tape = tape.lock().expect("tape");
    (tape.hash, tape.calls, tape.commands)
}

/// The tiny mobile scenario at 8 packets/s, with one node crashing and
/// rebooting mid-run so the revival input is on the tape too.
fn scenario(dsr: DsrConfig, seed: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::tiny(0.0, 8.0, dsr, seed);
    cfg.faults = FaultPlan::none().node_churn(
        NodeId::new(3),
        SimTime::from_secs(10.0),
        SimDuration::from_secs(3.0),
    );
    cfg
}

fn dsr_stream(dsr: DsrConfig, traced: bool) -> (u64, u64, u64) {
    let inner = dsr.clone();
    record(scenario(dsr, 11), traced, move |node, rng| DsrNode::new(node, inner.clone(), rng))
}

#[test]
fn dsr_command_streams_match_the_pinned_digests() {
    let runs = [
        ("base", dsr_stream(DsrConfig::base(), false)),
        ("wider_error", dsr_stream(DsrConfig::wider_error(), false)),
        ("adaptive_expiry", dsr_stream(DsrConfig::adaptive_expiry(), false)),
        ("negative_cache", dsr_stream(DsrConfig::negative_cache(), false)),
        ("combined", dsr_stream(DsrConfig::combined(), false)),
        ("combined traced", dsr_stream(DsrConfig::combined(), true)),
        ("multipath", dsr_stream(DsrConfig::multipath(), false)),
    ];
    let got: Vec<String> = runs
        .iter()
        .map(|(name, (hash, calls, commands))| format!("{name} {hash:#018x} {calls} {commands}"))
        .collect();
    let pinned = [
        "base 0xaa65e766e7576a86 21570 6432",
        "wider_error 0x8fd574b74133c875 21494 6406",
        "adaptive_expiry 0xbae6fd807e1f6ff5 21459 6395",
        "negative_cache 0xbb99586c096352d5 21545 6427",
        "combined 0x79741bc7489cdfa4 21480 6400",
        "combined traced 0x0dc1e9c2500f1aeb 21480 62959",
        "multipath 0x4cc617cbc39c31b3 21124 6302",
    ];
    assert_eq!(got, pinned, "re-pin only with a behaviour change");
}

#[test]
fn aodv_command_stream_matches_the_pinned_digest() {
    let aodv = AodvConfig::default();
    let (hash, calls, commands) = record(scenario(DsrConfig::base(), 12), false, move |n, rng| {
        AodvNode::new(n, aodv.clone(), rng)
    });
    assert_eq!(format!("{hash:#018x} {calls} {commands}"), "0xc2a57417bcd36be1 25984 5913");
}
