//! Fault injection: deterministic schedules of device crashes and
//! restarts, link loss and flaps, and mid-reconfiguration aborts.
//!
//! A runtime-programmable network must stay correct when the substrate
//! misbehaves *during* a reconfiguration — the paper's vision of networks
//! that "evolve in situ" is only credible if a crash mid-transition cannot
//! strand half-committed programs. A [`FaultPlan`] is a pure description
//! of what goes wrong and when; [`FaultPlan::apply`] schedules it into a
//! [`Simulation`] as timed commands. Randomized elements (link flaps) are
//! driven by an explicit seed, so a failing run reproduces bit-identically
//! from the plan alone.

use crate::engine::{Command, Simulation};
use flexnet_types::{LinkId, NodeId, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How long a chaos-schedule victim device stays down before restarting
/// (a power blip: long enough to wipe volatile state, short enough that
/// recovery finds the device back up).
pub const VICTIM_RESTART_DELAY: SimDuration = SimDuration::from_millis(200);

/// One class of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The device loses power: traffic through it is lost, its volatile
    /// memory (including any prepared shadow program) is gone.
    DeviceCrash(NodeId),
    /// The device comes back with its runtime state wiped.
    DeviceRestart(NodeId),
    /// The link pair stops carrying traffic.
    LinkDown(LinkId),
    /// The link pair carries traffic again.
    LinkUp(LinkId),
    /// An in-flight reconfiguration on the device is aborted and rolled
    /// back to the exact pre-reconfig program.
    ReconfigAbort(NodeId),
}

impl FaultKind {
    /// The engine command effecting this fault.
    pub fn command(&self) -> Command {
        match *self {
            FaultKind::DeviceCrash(node) => Command::CrashDevice { node },
            FaultKind::DeviceRestart(node) => Command::RestartDevice { node },
            FaultKind::LinkDown(link) => Command::SetLinkState { link, up: false },
            FaultKind::LinkUp(link) => Command::SetLinkState { link, up: true },
            FaultKind::ReconfigAbort(node) => Command::AbortReconfig { node },
        }
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// When the fault fires.
    pub at: SimTime,
    /// What goes wrong.
    pub kind: FaultKind,
}

/// A deterministic fault schedule.
///
/// Built with the chainable injection methods, then [`applied`]
/// (`FaultPlan::apply`) to a simulation. The same plan (same seed, same
/// calls) always produces the same event list.
///
/// [`applied`]: FaultPlan::apply
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan whose randomized injections derive from `seed`.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Crashes `node` at `at`.
    pub fn crash(mut self, at: SimTime, node: NodeId) -> FaultPlan {
        self.events.push(FaultEvent {
            at,
            kind: FaultKind::DeviceCrash(node),
        });
        self
    }

    /// Restarts `node` (state wiped) at `at`.
    pub fn restart(mut self, at: SimTime, node: NodeId) -> FaultPlan {
        self.events.push(FaultEvent {
            at,
            kind: FaultKind::DeviceRestart(node),
        });
        self
    }

    /// Aborts whatever reconfiguration is in flight on `node` at `at`.
    pub fn abort_reconfig(mut self, at: SimTime, node: NodeId) -> FaultPlan {
        self.events.push(FaultEvent {
            at,
            kind: FaultKind::ReconfigAbort(node),
        });
        self
    }

    /// Flaps `link` between `from` and `until`: alternating up/down
    /// periods drawn uniformly from `[1, mean*2)` so the mean period is
    /// `mean_period`. Deterministic in the plan seed and the link id.
    pub fn flap_link(
        mut self,
        link: LinkId,
        from: SimTime,
        until: SimTime,
        mean_period: SimDuration,
    ) -> FaultPlan {
        let mut rng =
            StdRng::seed_from_u64(self.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ link.0 as u64);
        let mut t = from;
        let mut up = true;
        let span = mean_period.as_nanos().max(2);
        while t < until {
            let gap = SimDuration::from_nanos(rng.gen_range(1..span * 2));
            t += gap;
            if t >= until {
                break;
            }
            up = !up;
            self.events.push(FaultEvent {
                at: t,
                kind: if up {
                    FaultKind::LinkUp(link)
                } else {
                    FaultKind::LinkDown(link)
                },
            });
        }
        // Always leave the link up at the end of the window.
        if !up {
            self.events.push(FaultEvent {
                at: until,
                kind: FaultKind::LinkUp(link),
            });
        }
        self
    }

    /// Schedules every event of the plan into `sim`.
    pub fn apply(&self, sim: &mut Simulation) {
        for ev in &self.events {
            sim.schedule(ev.at, ev.kind.command());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;
    use crate::workload::{generate, FlowSpec};
    use flexnet_lang::parser::parse_source;

    fn forwarding() -> flexnet_lang::diff::ProgramBundle {
        let file =
            parse_source("program fwd kind any { handler ingress(pkt) { forward(0); } }").unwrap();
        flexnet_lang::diff::ProgramBundle {
            headers: file.headers,
            program: file.programs.into_iter().next().unwrap(),
        }
    }

    #[test]
    fn plan_is_deterministic_in_its_seed() {
        let mk = |seed| {
            FaultPlan::new(seed)
                .crash(SimTime::from_secs(1), NodeId(0))
                .flap_link(
                    LinkId(0),
                    SimTime::from_secs(2),
                    SimTime::from_secs(4),
                    SimDuration::from_millis(100),
                )
                .events()
                .to_vec()
        };
        assert_eq!(mk(7), mk(7), "same seed, same schedule");
        assert_ne!(mk(7), mk(8), "different seed, different flaps");
    }

    #[test]
    fn flap_leaves_link_up() {
        let plan = FaultPlan::new(3).flap_link(
            LinkId(1),
            SimTime::ZERO,
            SimTime::from_secs(1),
            SimDuration::from_millis(50),
        );
        let last_state = plan.events().iter().rev().find_map(|e| match e.kind {
            FaultKind::LinkUp(_) => Some(true),
            FaultKind::LinkDown(_) => Some(false),
            _ => None,
        });
        assert_eq!(last_state, Some(true));
    }

    #[test]
    fn crash_loses_arriving_packets_and_restart_recovers() {
        let (topo, sw, hosts) = Topology::single_switch(2);
        let mut sim = Simulation::new(topo);
        sim.schedule(
            SimTime::ZERO,
            Command::Install {
                node: sw,
                bundle: forwarding(),
            },
        );
        // 1 kpps for 4 s; the switch is down during [1 s, 2 s).
        sim.load(generate(
            &[FlowSpec::udp_cbr(
                hosts[0],
                hosts[1],
                1000,
                SimTime::from_millis(1),
                SimDuration::from_secs(4),
            )],
            1,
        ));
        FaultPlan::new(0)
            .crash(SimTime::from_secs(1), sw)
            .restart(SimTime::from_secs(2), sw)
            .apply(&mut sim);
        sim.run_to_completion();
        // In-flight packets die at the crashed device; packets injected
        // after the crash find no route (routes recomputed around it).
        let down = sim
            .metrics
            .losses
            .get(&crate::metrics::LossKind::DeviceDown)
            .copied()
            .unwrap_or(0);
        assert!(down >= 1, "in-flight packets lost at the crashed switch");
        let lost = sim.metrics.total_lost();
        assert!(
            (900..=1100).contains(&lost),
            "~1 s of traffic lost during the outage, got {lost} ({:?})",
            sim.metrics.losses
        );
        assert!(
            sim.metrics.delivered >= 2900,
            "traffic before and after the outage delivered, got {}",
            sim.metrics.delivered
        );
    }

    #[test]
    fn link_down_drops_until_restored() {
        let (topo, sw, hosts) = Topology::single_switch(2);
        // The link from the switch to host 1 (switch port 1).
        let cut = topo.node(sw).unwrap().ports[&1];
        let mut sim = Simulation::new(topo);
        sim.schedule(
            SimTime::ZERO,
            Command::Install {
                node: sw,
                bundle: forwarding(),
            },
        );
        sim.load(generate(
            &[FlowSpec::udp_cbr(
                hosts[0],
                hosts[1],
                1000,
                SimTime::from_millis(1),
                SimDuration::from_secs(3),
            )],
            1,
        ));
        for (at, up) in [(1, false), (2, true)] {
            sim.schedule(
                SimTime::from_secs(at),
                Command::SetLinkState { link: cut, up },
            );
        }
        sim.run_to_completion();
        let lost: u64 = sim.metrics.total_lost();
        assert!(
            (900..=1100).contains(&lost),
            "~1 s of traffic lost on the cut link, got {lost} ({:?})",
            sim.metrics.losses
        );
        assert!(sim.metrics.delivered >= 1900);
    }
}
