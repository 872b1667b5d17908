//! E18 — the data-plane sandbox vs. rogue programs and poison packets.
//!
//! The paper's runtime-programmable network invites third-party programs
//! into the packet path — which only works if a hostile (or merely
//! buggy) program cannot take the device down with it. The sandbox's
//! layers, each attacked by one [`RogueScenario`]:
//!
//! - **gas metering** — every packet carries an instruction budget;
//!   a runaway loop exhausts it and traps instead of wedging the pipe;
//! - **typed traps** — malformed headers, out-of-bounds state slots,
//!   division by zero all surface as trap values in the verdict, never as
//!   panics;
//! - **quarantine** — a program whose in-window trap rate crosses
//!   threshold is atomically swapped for the last-known-good image, and
//!   the sticky flag rides heartbeats into the failure detector,
//!   admission, and the canary rollout's most-specific guard;
//! - **parse-trap separation** — poison *bytes* indict the packet, not
//!   the program: a malformed flood must never quarantine an innocent
//!   image.
//!
//! One seed expands into a [`RogueSchedule`] played against the 8-lane
//! fleet with live traffic. The fleet-level claim under test: **quarantine
//! fires before neighbor tenants see SLO impact** — the victim's trap
//! storm is contained inside its trap window, other lanes lose nothing,
//! and the fleet stays inside the canary loss budget throughout.

use crate::fixture::{bundle, Draws, LaneFleet, HEARTBEAT_PERIOD, LANES};
use crate::sweep::{col, count, total, Arm, Report, Suite, Summary};
use flexnet_controller::{HealthEvent, LossyFabric, RolloutOutcome, RolloutReport};
use flexnet_dataplane::{SandboxConfig, TRAP_WINDOW};
use flexnet_lang::ast::{StateDecl, StateKind};
use flexnet_lang::diff::{ProgramBundle, ReconfigOp};
use flexnet_types::hash::{mix, mix_next};
use flexnet_types::{FlexError, Result, SimDuration, SimTime};

/// How a rogue tenant attacks the data-plane sandbox: a
/// verified-but-hostile program (or a hostile packet stream) tries to
/// take a device down from inside its packet path. Each variant targets a
/// different sandbox layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RogueScenario {
    /// The program recirculates every packet to burn cycles: the per-
    /// packet gas meter must trap it and the trap-rate window must
    /// quarantine it to the last-known-good image.
    RunawayLoop,
    /// A runtime `ModifyState` shrinks a register array under a running
    /// program: every subsequent indexed access must surface as a typed
    /// out-of-bounds trap (not a panic), and the storm must quarantine.
    StateBomb,
    /// A flood of malformed frames hits the wire parser: every frame must
    /// trap (never panic) and be dropped, and — critically — parse traps
    /// must NOT indict the installed program or trip its quarantine.
    MalformedFlood,
    /// A canary rollout ships a candidate that traps on live traffic
    /// (division by a state value that is zero in production): the
    /// quarantine guard must abort the rollout inside wave 1 and roll the
    /// canaries back, before any later wave widens exposure.
    TrapStormRollout,
}

impl RogueScenario {
    /// All scenarios, cycled by the sweep.
    pub const ALL: [RogueScenario; 4] = [
        RogueScenario::RunawayLoop,
        RogueScenario::StateBomb,
        RogueScenario::MalformedFlood,
        RogueScenario::TrapStormRollout,
    ];

    /// A short stable label for tables and test output.
    pub fn label(&self) -> &'static str {
        match self {
            RogueScenario::RunawayLoop => "runaway-loop",
            RogueScenario::StateBomb => "state-bomb",
            RogueScenario::MalformedFlood => "malformed-flood",
            RogueScenario::TrapStormRollout => "trap-storm-rollout",
        }
    }
}

/// Everything a rogue-program run does, derived from one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct RogueSchedule {
    /// The originating seed (kept for reproduction in reports).
    pub seed: u64,
    /// Which sandbox layer this run attacks.
    pub scenario: RogueScenario,
    /// Fleet index of the device hosting the rogue program (or receiving
    /// the poison flood). Not used by [`RogueScenario::TrapStormRollout`],
    /// where the rollout's own wave plan decides exposure.
    pub victim: usize,
    /// [`RogueScenario::RunawayLoop`]: the device gas budget tier — low
    /// enough that the loop exhausts it within one packet.
    pub gas_limit: u64,
    /// [`RogueScenario::StateBomb`]: the register array is shrunk to this
    /// many slots at runtime (the program keeps indexing past it).
    pub shrink_to: u64,
    /// [`RogueScenario::MalformedFlood`]: how many poison frames hit the
    /// victim's wire parser.
    pub flood_packets: u32,
    /// Drop probability of the controller↔device fabric (quarantine
    /// signals ride heartbeats through it; the control plane must still
    /// observe and react).
    pub fabric_loss: f64,
    /// Seed for the controller Raft cluster.
    pub raft_seed: u64,
}

impl RogueSchedule {
    /// Expands `seed` into a rogue schedule over `participants` devices.
    ///
    /// The scenario cycles with the seed (any contiguous run of ≥4 seeds
    /// covers every sandbox layer; seeds ≡ 3 mod 4 are the trap-storm-
    /// during-rollout runs), severity knobs come from the seed's hash, and
    /// fabric loss comes from the standard tiers.
    pub fn from_seed(seed: u64, participants: usize) -> RogueSchedule {
        let d = Draws::new(seed, 0x0BAD_5EED);
        RogueSchedule {
            seed,
            scenario: RogueScenario::ALL[(seed % 4) as usize],
            victim: d.index(3, participants),
            gas_limit: [64, 256, 1024][d.bits(5, 3) as usize],
            shrink_to: 1 + d.bits(7, 4),
            flood_packets: 128 + d.bits(16, 3) as u32 * 128,
            fabric_loss: d.fabric_loss(),
            raft_seed: mix(seed ^ 0xBAD_F00D),
        }
    }
}

/// Fleet loss budget (ppm) the scenario must stay inside end to end —
/// the same 2% the canary loss-delta guard enforces: a quarantine that
/// only fires after the fleet SLO is gone fired too late.
const FLEET_LOSS_BUDGET_PPM: u64 = 20_000;

/// Everything one rogue-program run observed.
#[derive(Debug, Clone)]
pub struct SandboxReport {
    /// The schedule the seed expanded to.
    pub schedule: RogueSchedule,
    /// When the *device* quarantined its program (sandbox-side), if ever.
    pub quarantined_at: Option<SimTime>,
    /// When the *controller* first saw the quarantine (a
    /// [`HealthEvent::Quarantined`] from the detector), if ever.
    pub observed_at: Option<SimTime>,
    /// Program traps the victim device counted.
    pub victim_traps: u64,
    /// Parse (poison-byte) traps the victim device counted.
    pub victim_parse_traps: u64,
    /// The rollout's account, for [`RogueScenario::TrapStormRollout`].
    pub rollout: Option<RolloutReport>,
    /// Packets delivered over the whole scenario.
    pub delivered: u64,
    /// Packets lost over the whole scenario.
    pub lost: u64,
    /// Every invariant violation observed (empty = the run passed).
    pub violations: Vec<String>,
}

impl Report for SandboxReport {
    fn failures(&self) -> Vec<String> {
        self.violations.clone()
    }
}

/// A runaway loop: verifier-bounded, but far over any reasonable
/// per-packet gas budget — the meter must trap it on every packet.
fn rogue_burn() -> ProgramBundle {
    bundle(
        "program burn kind any {
           register spin : u64[1];
           handler ingress(pkt) {
             repeat (64) {
               repeat (8) { reg_write(spin, 0, reg_read(spin, 0) + 1); }
             }
             forward(1);
           }
         }",
    )
}

/// The state-bomb victim: indexes cell 6 of an 8-cell register. Correct
/// as installed; a runtime `ModifyState` shrink turns every access into
/// a typed out-of-bounds trap.
fn rogue_bomb() -> ProgramBundle {
    bundle(
        "program bomb kind any {
           register slots : u64[8];
           handler ingress(pkt) {
             reg_write(slots, 6, reg_read(slots, 6) + 1);
             forward(1);
           }
         }",
    )
}

/// The trap-storm rollout candidate: divides by a map value that is
/// zero on every production packet — typed div-by-zero on every packet
/// it sees.
fn rogue_divzero() -> ProgramBundle {
    bundle(
        "program storm kind any {
           map peers : map<u32, u32>[64];
           handler ingress(pkt) {
             let x = 1000 / map_get(peers, ipv4.src);
             forward(1);
           }
         }",
    )
}

/// The next frame of a deterministic poison stream: always shorter than
/// the 14-byte Ethernet minimum, so every one must parse-trap.
fn poison_frame(stream: &mut u64, buf: &mut Vec<u8>) {
    let z = mix_next(stream);
    buf.clear();
    buf.extend((0..(z % 14) as usize).map(|i| (z >> (8 * (i % 8))) as u8));
}

/// The fleet stayed inside the loss budget end to end.
fn fleet_slo_held(fleet: &LaneFleet, how_late: &str, violations: &mut Vec<String>) {
    let (lost, attempts) = fleet.lost_of_attempts();
    if attempts > 0 && lost * 1_000_000 / attempts > FLEET_LOSS_BUDGET_PPM {
        violations.push(format!("fleet lost {lost}/{attempts} packets: {how_late}"));
    }
}

/// Runs the full rogue-program scenario for one seed (the suite has no
/// ablated arm).
pub fn run(seed: u64, _arm: Arm) -> Result<SandboxReport> {
    let schedule = RogueSchedule::from_seed(seed, LANES);
    let mut fleet = LaneFleet::new(seed, schedule.fabric_loss)?;
    if schedule.scenario == RogueScenario::TrapStormRollout {
        return run_rollout_storm(schedule, fleet);
    }
    let mut violations: Vec<String> = Vec::new();

    // -- arm the device-scoped attack -----------------------------------
    let victim = fleet.switches[schedule.victim];
    let base_digest = fleet.device(victim).config_digest();
    {
        let dev = &mut fleet.sim.topo.node_mut(victim).expect("victim").device;
        let rogue = match schedule.scenario {
            RogueScenario::RunawayLoop => {
                dev.set_sandbox(SandboxConfig {
                    gas_limit: schedule.gas_limit,
                });
                Some(rogue_burn())
            }
            RogueScenario::StateBomb => Some(rogue_bomb()),
            _ => None, // the flood ships no rogue program at all
        };
        if let Some(rogue) = rogue {
            dev.install(rogue)
                .map_err(|e| FlexError::Sim(format!("seed {seed}: install rogue: {e}")))?;
        }
    }
    let armed_digest = fleet.device(victim).config_digest();

    // -- drive: 50 ms slices, heartbeats each slice ----------------------
    let trigger_at = SimTime::from_secs(2);
    let mut triggered = false;
    let mut quarantined_at: Option<SimTime> = None;
    let mut observed_at: Option<SimTime> = None;
    let mut t = SimTime::from_secs(1);
    while t <= fleet.flow_end {
        fleet.sim.run(t);
        if !triggered && t >= trigger_at {
            triggered = true;
            let dev = &mut fleet.sim.topo.node_mut(victim).expect("victim").device;
            match schedule.scenario {
                RogueScenario::StateBomb => {
                    // The runtime shrink that arms the bomb: cells 4..8
                    // vanish under the running program.
                    let shrink = ReconfigOp::ModifyState(
                        StateDecl {
                            name: "slots".into(),
                            kind: StateKind::Register { width: 64 },
                            size: schedule.shrink_to,
                        }
                        .into(),
                    );
                    if let Some(p) = dev.program_mut() {
                        p.apply_op(&shrink).map_err(|e| {
                            FlexError::Sim(format!("seed {seed}: shrink register: {e}"))
                        })?;
                    }
                }
                RogueScenario::MalformedFlood => {
                    let mut stream = seed ^ 0xF100_D000;
                    let mut frame = Vec::new();
                    for i in 0..schedule.flood_packets {
                        poison_frame(&mut stream, &mut frame);
                        let r = dev
                            .process_bytes(&frame, u64::from(i) | (1 << 60), t)
                            .map_err(|e| {
                                FlexError::Sim(format!("seed {seed}: poison frame {i}: {e}"))
                            })?;
                        if r.trap.is_none() {
                            violations
                                .push(format!("poison frame {i} did not trap ({frame:02x?})"));
                        }
                    }
                }
                _ => {}
            }
        }
        if quarantined_at.is_none() && fleet.device(victim).quarantined() {
            quarantined_at = Some(t);
        }
        for (node, event) in fleet.detector.sweep(&fleet.sim, &mut fleet.fabric, t) {
            if node == victim && matches!(event, HealthEvent::Quarantined { .. }) {
                observed_at.get_or_insert(t);
            }
        }
        t += HEARTBEAT_PERIOD;
    }
    fleet.sim.run_to_completion();
    // Settle the grading: a lossy fabric can eat the last few heartbeats
    // and leave a silence grade (Suspect) that has nothing to do with the
    // sandbox. The admission checks below judge the *data path*, so give
    // the detector a few reliably-delivered beats first — a quarantine
    // still reports through them and still refuses admission.
    let mut reliable = LossyFabric::reliable();
    for k in 1..=3u64 {
        let at = fleet.flow_end + HEARTBEAT_PERIOD.saturating_mul(k);
        fleet.detector.sweep(&fleet.sim, &mut reliable, at);
    }

    // -- invariants ------------------------------------------------------
    let dev = fleet.device(victim);
    let stats = dev.stats();
    let end_digest = dev.config_digest();
    let end_quarantined = dev.quarantined();
    let detector = &fleet.detector;

    match schedule.scenario {
        RogueScenario::RunawayLoop | RogueScenario::StateBomb => {
            let want_label = match schedule.scenario {
                RogueScenario::RunawayLoop => "gas-exhausted",
                _ => "state-oob",
            };
            if !end_quarantined || stats.quarantines != 1 {
                violations.push(format!(
                    "{}: program not quarantined exactly once (flag {end_quarantined}, count {})",
                    schedule.scenario.label(),
                    stats.quarantines
                ));
            }
            if quarantined_at.is_none() {
                violations.push("quarantine never observed device-side".into());
            }
            if end_digest != base_digest {
                violations.push(format!(
                    "fallback digest {end_digest:#x} is not the stashed baseline {base_digest:#x}"
                ));
            }
            if armed_digest == base_digest {
                violations.push("rogue install did not change the config digest".into());
            }
            let got_label = dev.last_trap().map(|tr| tr.label());
            if got_label != Some(want_label) {
                violations.push(format!(
                    "last trap {got_label:?}, designed to storm with {want_label}"
                ));
            }
            // Containment: the storm dies inside (at most) two trap
            // windows — the partially-clean window it lands in plus one
            // all-trapping window.
            if stats.dropped > 2 * TRAP_WINDOW {
                violations.push(format!(
                    "victim dropped {} packets; quarantine must fire within {} (2 windows)",
                    stats.dropped,
                    2 * TRAP_WINDOW
                ));
            }
            if stats.traps == 0 || stats.traps != stats.dropped {
                violations.push(format!(
                    "victim counted {} traps but {} drops: every loss must be a typed trap",
                    stats.traps, stats.dropped
                ));
            }
            if stats.parse_traps != 0 {
                violations.push(format!(
                    "{} parse traps counted with no poison bytes in play",
                    stats.parse_traps
                ));
            }
            // The control plane saw it, and admission refuses the victim.
            if observed_at.is_none() {
                violations.push("controller never observed a Quarantined event".into());
            }
            if !detector.quarantine_reported(victim) {
                violations.push("latest heartbeat does not report the quarantine".into());
            }
            if detector.admit(victim).is_ok() {
                violations.push("admission accepted a quarantined device".into());
            }
            // Recovery: once on the fallback, the lane forwards cleanly.
            if let Some(at) = quarantined_at {
                let from = at + SimDuration::from_millis(200);
                fleet.clean_after("quarantine", from, &mut violations);
            }
        }
        _ => {
            if stats.parse_traps != u64::from(schedule.flood_packets) {
                violations.push(format!(
                    "{} parse traps for a {}-frame flood",
                    stats.parse_traps, schedule.flood_packets
                ));
            }
            if stats.traps != 0 {
                violations.push(format!(
                    "{} program traps charged to an innocent program",
                    stats.traps
                ));
            }
            if end_quarantined || stats.quarantines != 0 {
                violations.push("poison bytes quarantined the program they never ran".into());
            }
            if end_digest != base_digest {
                violations.push("flood changed the victim's config digest".into());
            }
            if detector.quarantine_reported(victim) {
                violations.push("heartbeats report a quarantine that never happened".into());
            }
            if detector.admit(victim).is_err() {
                violations.push("victim still refused admission after the flood passed".into());
            }
            if fleet.sim.metrics.total_lost() != 0 {
                violations.push(format!(
                    "lane traffic lost {} packets to a flood of unparseable bytes",
                    fleet.sim.metrics.total_lost()
                ));
            }
        }
    }

    // Blast radius: no other lane pays anything, and the fleet stays
    // inside the canary loss budget end to end.
    for &d in fleet.switches.iter().filter(|&&d| d != victim) {
        fleet.untouched(d, "neighbor", &mut violations);
    }
    fleet_slo_held(
        &fleet,
        "quarantine fired after the SLO was gone",
        &mut violations,
    );

    Ok(SandboxReport {
        schedule,
        quarantined_at,
        observed_at,
        victim_traps: stats.traps,
        victim_parse_traps: stats.parse_traps,
        rollout: None,
        delivered: fleet.sim.metrics.delivered,
        lost: fleet.sim.metrics.total_lost(),
        violations,
    })
}

/// The trap-storm-during-rollout scenario: a canary rollout ships the
/// div-by-zero candidate; the device-side quarantine must fire during
/// wave 1's soak and the rollout's quarantine guard must abort and roll
/// back before any later wave widens exposure.
fn run_rollout_storm(schedule: RogueSchedule, mut fleet: LaneFleet) -> Result<SandboxReport> {
    let rollout = fleet.rollout(schedule.raft_seed, |_| rogue_divzero())?;
    let report = &rollout.report;
    let mut violations: Vec<String> = Vec::new();

    // -- invariants ------------------------------------------------------
    match (&report.outcome, &report.breach) {
        (RolloutOutcome::RolledBack { .. }, Some(b)) => {
            if b.guard != "quarantine" || b.wave != 1 {
                violations.push(format!(
                    "storm tripped {} in wave {}, designed for quarantine in wave 1",
                    b.guard, b.wave
                ));
            }
        }
        other => {
            violations.push(format!(
                "trap-storm candidate was not rolled back: {other:?}"
            ));
        }
    }
    // The wave's flip journals before its soak judges it, so a wave-1
    // breach leaves exactly one committed wave — never more.
    if report.waves_committed > 1 {
        violations.push(format!(
            "{} waves committed past a wave-1 storm",
            report.waves_committed
        ));
    }
    if !report.quarantined.is_empty() {
        violations.push(format!(
            "rollback failed to restore {:?} (stranded on the storm image)",
            report.quarantined
        ));
    }
    // Blast radius: only wave-1 devices saw the candidate; each one's
    // storm died inside two trap windows.
    let wave1 = rollout.plan.waves.first().cloned().unwrap_or_default();
    let mut storm_traps = 0u64;
    for &d in &fleet.switches {
        let dev = fleet.device(d);
        let stats = dev.stats();
        if wave1.contains(&d) {
            storm_traps += stats.traps;
            if stats.traps == 0 {
                violations.push(format!("wave-1 device {d} never trapped on the candidate"));
            }
            if stats.dropped > 2 * TRAP_WINDOW {
                violations.push(format!(
                    "wave-1 device {d} dropped {} packets; quarantine must fire within {}",
                    stats.dropped,
                    2 * TRAP_WINDOW
                ));
            }
        } else {
            fleet.untouched(d, "unflipped device", &mut violations);
        }
        if dev.quarantined() {
            violations.push(format!(
                "{d} still quarantined after rollback reinstalled the baseline"
            ));
        }
        fleet.back_on_baseline(d, &rollout, &mut violations);
    }
    fleet_slo_held(
        &fleet,
        "the storm breached the SLO before the guard",
        &mut violations,
    );
    // And the network is clean again after the rollback settles.
    let post_from = report.finished_at + SimDuration::from_millis(300);
    fleet.clean_after("rollback", post_from, &mut violations);

    Ok(SandboxReport {
        schedule,
        quarantined_at: None,
        observed_at: None,
        victim_traps: storm_traps,
        victim_parse_traps: 0,
        delivered: fleet.sim.metrics.delivered,
        lost: fleet.sim.metrics.total_lost(),
        rollout: Some(rollout.report),
        violations,
    })
}

type Agg = fn(&[&SandboxReport]) -> u64;
const TRAPS: Agg = |c| total(c, |r| r.victim_traps);
const PARSE_TRAPS: Agg = |c| total(c, |r| r.victim_parse_traps);
const LOST: Agg = |c| total(c, |r| r.lost);
const DELIVERED: Agg = |c| total(c, |r| r.delivered);

/// Fleet loss across a cohort, in ppm of packets attempted.
fn loss_ppm(c: &[&SandboxReport]) -> u64 {
    (LOST(c) * 1_000_000)
        .checked_div(LOST(c) + DELIVERED(c))
        .unwrap_or(0)
}

/// The E18 experiment.
pub fn suite() -> Suite<SandboxReport> {
    Suite {
        name: "sandbox",
        id: "E18",
        title: "data-plane sandbox: gas metering, typed traps, quarantine",
        claim: "a runtime-programmable network invites third-party programs \
                into the packet path; a hostile or buggy one must trap, not \
                panic, and be quarantined before its tenant's neighbors notice",
        sweep_note: "(scenario = seed mod 4)",
        run,
        cohort_title: "scenario",
        cohorts: RogueScenario::ALL
            .iter()
            .map(RogueScenario::label)
            .collect(),
        cohort_of: |r| {
            let scenario = r.schedule.scenario;
            RogueScenario::ALL
                .iter()
                .position(|s| *s == scenario)
                .expect("a listed scenario")
        },
        columns: vec![
            col("contained", |c| count(c, |r| r.passed()).to_string()),
            col("traps (sum)", |c| TRAPS(c).to_string()),
            col("parse traps", |c| PARSE_TRAPS(c).to_string()),
            col("lost/delivered", |c| {
                format!("{}/{}", LOST(c), DELIVERED(c))
            }),
        ],
        totals: Some(|all| {
            format!(
                "fleet loss across the whole sweep: {}/{} packets \
                 ({} ppm — every storm contained inside the 2% canary \
                 budget); {} trap-storm rollouts aborted by the \
                 quarantine guard",
                LOST(all),
                LOST(all) + DELIVERED(all),
                loss_ppm(all),
                count(all, |r| r.rollout.is_some()),
            )
        }),
        oracle: None,
        summary: Some(Summary {
            experiment: "e18_sandbox",
            head: |t| {
                vec![
                    ("contained", t.passed.to_string()),
                    ("fleet_loss_ppm", loss_ppm(t.on).to_string()),
                ]
            },
            cohort: vec![
                col("contained", |c| count(c, |r| r.passed()).to_string()),
                col("traps", |c| TRAPS(c).to_string()),
                col("parse_traps", |c| PARSE_TRAPS(c).to_string()),
                col("lost", |c| LOST(c).to_string()),
                col("delivered", |c| DELIVERED(c).to_string()),
            ],
            tail: |_| Vec::new(),
        }),
        verdict: "runs upheld every invariant (typed traps only, \
                  quarantine before SLO impact, digest-verified fallback, zero \
                  neighbor loss); wrote E18_summary.json",
        failed_note: "",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_sandbox_seed(seed: u64) -> Result<SandboxReport> {
        run(seed, Arm::Protected)
    }

    #[test]
    fn runaway_loop_is_gas_trapped_and_quarantined() {
        let report = run_sandbox_seed(0).unwrap();
        assert_eq!(report.schedule.scenario, RogueScenario::RunawayLoop);
        assert!(report.passed(), "violations: {:#?}", report.violations);
        assert!(report.quarantined_at.is_some());
        assert!(report.observed_at.is_some());
        assert!(report.victim_traps > 0);
    }

    #[test]
    fn state_bomb_traps_out_of_bounds_and_quarantines() {
        let report = run_sandbox_seed(1).unwrap();
        assert_eq!(report.schedule.scenario, RogueScenario::StateBomb);
        assert!(report.passed(), "violations: {:#?}", report.violations);
        assert!(report.quarantined_at.is_some());
    }

    #[test]
    fn malformed_flood_never_indicts_the_program() {
        let report = run_sandbox_seed(2).unwrap();
        assert_eq!(report.schedule.scenario, RogueScenario::MalformedFlood);
        assert!(report.passed(), "violations: {:#?}", report.violations);
        assert_eq!(report.quarantined_at, None);
        assert!(report.victim_parse_traps > 0);
        assert_eq!(report.victim_traps, 0);
    }

    #[test]
    fn trap_storm_aborts_the_rollout_in_wave_one() {
        let report = run_sandbox_seed(3).unwrap();
        assert_eq!(report.schedule.scenario, RogueScenario::TrapStormRollout);
        assert!(report.passed(), "violations: {:#?}", report.violations);
        let rollout = report.rollout.expect("rollout ran");
        assert!(matches!(rollout.outcome, RolloutOutcome::RolledBack { .. }));
        assert_eq!(rollout.breach.unwrap().guard, "quarantine");
    }

    #[test]
    fn a_handful_of_consecutive_seeds_all_pass() {
        for seed in 4..8 {
            let report = run_sandbox_seed(seed).unwrap();
            assert!(
                report.passed(),
                "seed {seed} ({}) violations: {:#?}",
                report.schedule.scenario.label(),
                report.violations
            );
        }
    }
}
