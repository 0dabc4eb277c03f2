//! The agent command pool across nested inputs. The driver's own nesting
//! runs through the MAC (a decode delivers to the agent while the MAC's
//! buffer drains), but the pool must hold at any depth: an input made while
//! another input's commands are still being applied draws a buffer of its
//! own, and both come back empty, keeping their room.

use dsr::{DsrConfig, DsrTimer};

use super::*;

/// The buffers in the pool, by address.
fn pooled(sim: &Simulator) -> Vec<*const AgentCommand<packet::Packet, DsrTimer>> {
    sim.agent_cmd_pool.iter().map(|b| b.as_ptr()).collect()
}

/// Node 0 boots, and before its commands (arming the tick) are applied,
/// it originates a packet for node 2 (a discovery: a request and its
/// timeout) through `agent_input`.
fn nest(sim: &mut Simulator) {
    let mut outer = sim.agent_cmd_pool.pop().unwrap_or_default();
    sim.agents[0].start(sim.now, &mut outer);
    let now = sim.now;
    sim.agent_input(0, |agent, cmds| agent.originate(NodeId::new(2), 512, now, cmds));
    assert_eq!(outer.len(), 1, "the outer commands wait, untouched: {outer:?}");
    sim.drain_agent(0, outer);
}

#[test]
fn a_nested_agent_input_hands_both_buffers_back() {
    let cfg = ScenarioConfig::static_line(3, 200.0, 1.0, DsrConfig::base(), 1);
    let mut sim = Simulator::new(cfg);
    nest(&mut sim);
    assert_eq!(sim.agent_cmd_pool.len(), 2, "one buffer per level of nesting");
    assert!(sim.agent_cmd_pool.iter().all(|b| b.is_empty() && b.capacity() > 0));
    // Both inputs' commands were applied: the nested one's discovery
    // timeout and the outer one's tick.
    let timers = &sim.agent_timers[0];
    assert!(timers.contains_key(&DsrTimer::RequestTimeout(NodeId::new(2))), "{timers:?}");
    assert!(timers.contains_key(&DsrTimer::Tick), "{timers:?}");
    // Steady state: the same nesting again draws both buffers from the pool
    // and returns them, and no other.
    let before = pooled(&sim);
    sim.now = SimTime::from_secs(0.01);
    nest(&mut sim);
    assert_eq!(pooled(&sim), before, "the same two buffers, back in the pool");
}
