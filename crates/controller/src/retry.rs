//! Retries with exponential backoff and deadlines over a lossy control
//! fabric.
//!
//! The paper's controller "pilots" the network over the same fabric it
//! reprograms, so control messages (dRPC invocations, reconfiguration
//! commands) can be lost mid-flight. This module models that channel: a
//! seeded [`LossyFabric`] drops each message with a fixed probability, and
//! [`with_retry`] drives an idempotent operation through it under a
//! [`RetryPolicy`] — exponential backoff between attempts, a hard
//! deadline, and simulated-time accounting so experiments can measure how
//! long recovery actually took.
//!
//! Controller→device commands do not call [`with_retry`] themselves: the
//! crate-private `Channel` wraps it once with what every command needs on
//! top — the ack cache that keeps a command exactly-once when its response
//! is lost, the destination lookup, and the running message count and
//! clock (`DESIGN.md` §21). [`invoke_with_retry`] is the dRPC flavour.

use crate::drpc::{ServiceRegistry, CONTROLLER_RTT, DRPC_HOP_LATENCY};
use flexnet_dataplane::Device;
use flexnet_sim::Simulation;
use flexnet_types::{FlexError, NodeId, Result, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How an operation is retried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum number of attempts (including the first).
    pub max_attempts: u32,
    /// Backoff after the first failed attempt.
    pub base_backoff: SimDuration,
    /// Backoff growth factor per attempt.
    pub multiplier: u32,
    /// Give up when the next attempt would start later than this long
    /// after the first.
    pub deadline: SimDuration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 8,
            base_backoff: SimDuration::from_millis(1),
            multiplier: 2,
            deadline: SimDuration::from_secs(1),
        }
    }
}

impl RetryPolicy {
    /// The backoff inserted after failed attempt `attempt` (0-based):
    /// `base_backoff * multiplier^attempt`, saturating.
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        self.base_backoff
            .saturating_mul(self.multiplier.saturating_pow(attempt.min(20)) as u64)
    }
}

/// A message channel that drops each message with probability
/// `drop_prob`, deterministically in its seed. Loss is the only fault it
/// models: corruption, duplication, reordering and one-way partitions are
/// the E20 suite's adversary, which rides on a fabric's loss stream from
/// outside.
#[derive(Debug, Clone)]
pub struct LossyFabric {
    drop_prob: f64,
    rng: StdRng,
    /// Messages that made it through.
    pub delivered: u64,
    /// Messages lost in flight.
    pub dropped: u64,
}

impl LossyFabric {
    /// A fabric dropping each message with probability `drop_prob`.
    pub fn new(drop_prob: f64, seed: u64) -> LossyFabric {
        LossyFabric {
            drop_prob: drop_prob.clamp(0.0, 1.0),
            rng: StdRng::seed_from_u64(seed),
            delivered: 0,
            dropped: 0,
        }
    }

    /// A perfectly reliable fabric.
    pub fn reliable() -> LossyFabric {
        LossyFabric::new(0.0, 0)
    }

    /// The configured drop probability.
    pub fn drop_prob(&self) -> f64 {
        self.drop_prob
    }

    /// Sends one message; `true` when it arrives.
    pub fn deliver(&mut self) -> bool {
        if self.rng.gen_bool(self.drop_prob) {
            self.dropped += 1;
            false
        } else {
            self.delivered += 1;
            true
        }
    }
}

/// The result of a retried operation.
#[derive(Debug)]
pub struct RetryOutcome<T> {
    /// The operation's result, or [`FlexError::Timeout`] when every
    /// attempt was lost before the deadline.
    pub result: Result<T>,
    /// Attempts made (at least 1).
    pub attempts: u32,
    /// Simulated time at which the exchange concluded (success, semantic
    /// failure, or giving up).
    pub finished_at: SimTime,
}

impl<T> RetryOutcome<T> {
    /// Whether the operation eventually succeeded.
    pub fn is_ok(&self) -> bool {
        self.result.is_ok()
    }
}

/// Runs `op` through `fabric` under `policy`, starting at `start`.
///
/// Each attempt costs `rtt` of simulated time. The request and the
/// response each independently cross the fabric: a lost request means the
/// operation never ran this attempt; a lost response means it ran but the
/// caller retries anyway — so `op` must be idempotent (every control
/// operation here is: prepares, aborts, table writes, dRPC utilities).
/// A semantic error from `op` is returned immediately — retrying cannot
/// fix a type error — while message loss and *retryable* errors
/// ([`FlexError::is_retryable`], e.g. [`FlexError::NoLeader`] during an
/// election) back off exponentially until the policy's deadline or
/// attempt budget runs out. When the budget dies on a retryable error,
/// that error (not a generic timeout) is returned, so callers keep the
/// leader hint.
pub fn with_retry<T>(
    policy: &RetryPolicy,
    fabric: &mut LossyFabric,
    start: SimTime,
    rtt: SimDuration,
    mut op: impl FnMut(SimTime) -> Result<T>,
) -> RetryOutcome<T> {
    let deadline = start + policy.deadline;
    let mut t = start;
    let mut last_retryable: Option<FlexError> = None;
    let give_up = |last: Option<FlexError>, fallback: FlexError| last.unwrap_or(fallback);
    for attempt in 0..policy.max_attempts.max(1) {
        let request_arrived = fabric.deliver();
        t += rtt;
        if request_arrived {
            match op(t) {
                Ok(v) => {
                    if fabric.deliver() {
                        return RetryOutcome {
                            result: Ok(v),
                            attempts: attempt + 1,
                            finished_at: t,
                        };
                    }
                    // Response lost: the op took effect but we cannot know;
                    // fall through to retry (idempotence makes this safe).
                }
                Err(e) if e.is_retryable() => {
                    // Transient condition (e.g. an election in progress):
                    // back off like a lost message and try again.
                    last_retryable = Some(e);
                }
                Err(e) => {
                    return RetryOutcome {
                        result: Err(e),
                        attempts: attempt + 1,
                        finished_at: t,
                    }
                }
            }
        }
        t += policy.backoff(attempt);
        if t > deadline {
            return RetryOutcome {
                result: Err(give_up(
                    last_retryable,
                    FlexError::Timeout(format!(
                        "deadline {} exceeded after {} attempts",
                        policy.deadline,
                        attempt + 1
                    )),
                )),
                attempts: attempt + 1,
                finished_at: t,
            };
        }
    }
    RetryOutcome {
        result: Err(give_up(
            last_retryable,
            FlexError::Timeout(format!(
                "gave up after {} attempts",
                policy.max_attempts.max(1)
            )),
        )),
        attempts: policy.max_attempts.max(1),
        finished_at: t,
    }
}

/// Invokes a dRPC service through a lossy fabric with retries.
///
/// The per-attempt cost is the dRPC round trip (`2 * hops` hops at
/// data-plane speed), so even several retries stay far below one
/// controller escalation ([`CONTROLLER_RTT`]).
#[allow(clippy::too_many_arguments)]
pub fn invoke_with_retry(
    registry: &mut ServiceRegistry,
    fabric: &mut LossyFabric,
    policy: &RetryPolicy,
    name: &str,
    caller: NodeId,
    args: &[u64],
    hops: u32,
    now: SimTime,
) -> RetryOutcome<SimDuration> {
    let rtt = DRPC_HOP_LATENCY.saturating_mul(2 * hops.max(1) as u64);
    with_retry(policy, fabric, now, rtt, |t| {
        registry.invoke(name, caller, args, hops, t)
    })
}

/// The per-attempt round trip of a controller→device command.
pub fn command_rtt() -> SimDuration {
    CONTROLLER_RTT
}

/// The one controller→device command channel: `txn`, `recovery` and
/// `resync` send every command through [`Channel::send`], which owns the
/// retry, the exactly-once ack cache, the node lookup and the message /
/// simulated-time accounting. Its fabric only loses messages: corruption,
/// duplication and partitions never reach this path (the E20 suite plays
/// them through its own command loop).
pub(crate) struct Channel<'a> {
    pub sim: &'a mut Simulation,
    pub fabric: &'a mut LossyFabric,
    pub policy: &'a RetryPolicy,
    /// Where simulated time stands: each exchange starts here and leaves
    /// its `finished_at` here.
    pub now: SimTime,
    /// Attempts made so far, lost ones included.
    pub messages: u32,
}

impl Channel<'_> {
    /// Runs the command `op` on `node`'s device under the retry policy.
    ///
    /// A lost response makes [`with_retry`] deliver the request again; the
    /// first `Ok` the device gave is remembered and re-reported, so the
    /// command takes effect exactly once however many acks are lost. An
    /// `Err` is not remembered: a retryable one runs `op` again.
    pub fn send<T: Clone>(
        &mut self,
        node: NodeId,
        what: &str,
        mut op: impl FnMut(&mut Device, SimTime) -> Result<T>,
    ) -> Result<T> {
        let sim = &mut *self.sim;
        let mut acked: Option<T> = None;
        let out = with_retry(self.policy, self.fabric, self.now, command_rtt(), |at| {
            if let Some(ack) = &acked {
                return Ok(ack.clone());
            }
            let dest = sim
                .topo
                .node_mut(node)
                .ok_or_else(|| FlexError::Sim(format!("{what}: unknown node {node}")))?;
            let ack = op(&mut dest.device, at)?;
            acked = Some(ack.clone());
            Ok(ack)
        });
        self.messages += out.attempts;
        self.now = out.finished_at;
        out.result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drpc::ExecutionSite;

    #[test]
    fn backoff_grows_exponentially() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff(0), SimDuration::from_millis(1));
        assert_eq!(p.backoff(1), SimDuration::from_millis(2));
        assert_eq!(p.backoff(4), SimDuration::from_millis(16));
    }

    #[test]
    fn fabric_is_deterministic_and_roughly_calibrated() {
        let run = |seed| {
            let mut f = LossyFabric::new(0.3, seed);
            (0..1000).map(|_| f.deliver()).collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(1), "same seed, same drops");
        let dropped = run(1).iter().filter(|d| !**d).count();
        assert!(
            (200..400).contains(&dropped),
            "~30% of 1000 dropped, got {dropped}"
        );
    }

    #[test]
    fn reliable_fabric_succeeds_first_try() {
        let mut f = LossyFabric::reliable();
        let out = with_retry(
            &RetryPolicy::default(),
            &mut f,
            SimTime::ZERO,
            SimDuration::from_micros(10),
            |_| Ok(42),
        );
        assert_eq!(out.result.unwrap(), 42);
        assert_eq!(out.attempts, 1);
        assert_eq!(out.finished_at, SimTime::from_micros(10));
    }

    #[test]
    fn lossy_fabric_retries_until_success() {
        let mut f = LossyFabric::new(0.3, 7);
        let mut calls = 0u32;
        let out = with_retry(
            &RetryPolicy::default(),
            &mut f,
            SimTime::ZERO,
            SimDuration::from_micros(10),
            |_| {
                calls += 1;
                Ok(calls)
            },
        );
        assert!(out.is_ok());
        assert!(out.attempts >= 1);
        assert!(out.finished_at >= SimTime::from_micros(10));
    }

    #[test]
    fn semantic_errors_are_not_retried() {
        let mut f = LossyFabric::reliable();
        let mut calls = 0u32;
        let out = with_retry(
            &RetryPolicy::default(),
            &mut f,
            SimTime::ZERO,
            SimDuration::from_micros(10),
            |_| -> Result<()> {
                calls += 1;
                Err(FlexError::Type("bad arity".into()))
            },
        );
        assert!(matches!(out.result, Err(FlexError::Type(_))));
        assert_eq!(calls, 1, "no retry on semantic failure");
    }

    #[test]
    fn total_loss_times_out_with_deadline() {
        let mut f = LossyFabric::new(1.0, 3);
        let out = with_retry(
            &RetryPolicy::default(),
            &mut f,
            SimTime::ZERO,
            SimDuration::from_micros(10),
            |_| Ok(()),
        );
        assert!(matches!(out.result, Err(FlexError::Timeout(_))));
        assert!(
            out.finished_at.saturating_since(SimTime::ZERO) <= SimDuration::from_secs(2),
            "bounded by deadline + last backoff"
        );
    }

    #[test]
    fn attempt_landing_exactly_at_the_deadline_is_allowed() {
        // rtt + backoff(0) lands t exactly on the deadline: `t > deadline`
        // is false, so a second attempt must run — the deadline is
        // inclusive, not exclusive.
        let policy = RetryPolicy {
            max_attempts: 2,
            base_backoff: SimDuration::from_millis(9),
            multiplier: 2,
            deadline: SimDuration::from_millis(10),
        };
        let mut f = LossyFabric::new(1.0, 1); // request never arrives...
        let mut calls = 0u32;
        let out = with_retry(
            &policy,
            &mut f,
            SimTime::ZERO,
            SimDuration::from_millis(1),
            |_| {
                calls += 1;
                Ok(())
            },
        );
        // First attempt: t = 1ms (rtt) + 9ms (backoff) = 10ms = deadline,
        // exactly — not past it, so attempt 2 runs before giving up.
        assert_eq!(out.attempts, 2, "the at-deadline attempt must run");
        assert_eq!(calls, 0, "total loss: op never executed");
        assert!(matches!(out.result, Err(FlexError::Timeout(_))));
        // One nanosecond less of budget and the second attempt is gone.
        let tighter = RetryPolicy {
            deadline: SimDuration::from_millis(10) - SimDuration::from_nanos(1),
            ..policy
        };
        let mut f = LossyFabric::new(1.0, 1);
        let out = with_retry(
            &tighter,
            &mut f,
            SimTime::ZERO,
            SimDuration::from_millis(1),
            |_| Ok(()),
        );
        assert_eq!(out.attempts, 1);
    }

    #[test]
    fn response_lost_after_successful_apply_retries_idempotently() {
        // A seed whose delivery pattern is: req ok, resp LOST, req ok,
        // resp ok — the command applies once, the ack is lost, and the
        // retry must re-report the remembered answer, not apply again.
        let seed = (0..1000)
            .find(|&s| {
                let mut f = LossyFabric::new(0.5, s);
                f.deliver() && !f.deliver() && f.deliver() && f.deliver()
            })
            .expect("some seed produces ok/LOST/ok/ok");
        let (topo, sw, _hosts) = flexnet_sim::Topology::single_switch(2);
        let mut sim = Simulation::new(topo);
        let mut fabric = LossyFabric::new(0.5, seed);
        let policy = RetryPolicy::default();
        let mut ch = Channel {
            sim: &mut sim,
            fabric: &mut fabric,
            policy: &policy,
            now: SimTime::ZERO,
            messages: 0,
        };
        let mut applied = 0u32;
        let boot = ch.send(sw, "probe", |dev, _| {
            applied += 1;
            Ok(dev.boot_id())
        });
        assert_eq!(boot.unwrap(), 1, "the device's own answer comes back");
        assert_eq!(applied, 1, "the effect happened exactly once");
        assert_eq!(ch.messages, 2, "one lost response, one retry");
        let two_attempts_one_backoff = command_rtt().saturating_mul(2) + policy.backoff(0);
        assert_eq!(ch.now, SimTime::ZERO + two_attempts_one_backoff);

        // An `Err` is not remembered: a retryable one runs the op again.
        let mut fabric = LossyFabric::reliable();
        ch.fabric = &mut fabric;
        let mut calls = 0u32;
        let out = ch.send(sw, "probe", |_, _| {
            calls += 1;
            if calls < 3 {
                return Err(FlexError::ChecksumMismatch { want: 1, got: 2 });
            }
            Ok(calls)
        });
        assert_eq!(out.unwrap(), 3, "two refusals, then the answer");
        assert_eq!(ch.messages, 2 + 3);

        // And the lookup is the channel's: one error string, one place.
        let err = ch.send(NodeId(999), "probe", |_, _| Ok(())).unwrap_err();
        assert!(matches!(err, FlexError::Sim(m) if m == "probe: unknown node node999"));
    }

    #[test]
    fn zero_attempt_budget_still_makes_one_attempt() {
        // max_attempts = 0 is clamped to one attempt: a retry budget can
        // bound *re*-tries, but the first try is not optional.
        let policy = RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::default()
        };
        let mut f = LossyFabric::reliable();
        let mut calls = 0u32;
        let out = with_retry(
            &policy,
            &mut f,
            SimTime::ZERO,
            SimDuration::from_micros(10),
            |_| {
                calls += 1;
                Ok(calls)
            },
        );
        assert_eq!(out.result.unwrap(), 1);
        assert_eq!(out.attempts, 1);
        assert_eq!(calls, 1);
        // And with total loss, a zero budget reports exactly one attempt.
        let mut f = LossyFabric::new(1.0, 2);
        let out = with_retry(
            &policy,
            &mut f,
            SimTime::ZERO,
            SimDuration::from_micros(10),
            |_| Ok(()),
        );
        assert!(matches!(out.result, Err(FlexError::Timeout(_))));
        assert_eq!(out.attempts, 1);
    }

    #[test]
    fn no_leader_is_retried_and_surfaced_on_exhaustion() {
        // A NoLeader error behaves like message loss: backoff + retry. If
        // the leader shows up mid-retry, the call succeeds.
        let mut f = LossyFabric::reliable();
        let mut calls = 0u32;
        let out = with_retry(
            &RetryPolicy::default(),
            &mut f,
            SimTime::ZERO,
            SimDuration::from_micros(10),
            |_| {
                calls += 1;
                if calls < 3 {
                    Err(FlexError::NoLeader {
                        hint: Some(1),
                        retry_after: SimDuration::from_millis(300),
                    })
                } else {
                    Ok(calls)
                }
            },
        );
        assert_eq!(out.result.unwrap(), 3, "succeeded once a leader emerged");
        assert_eq!(out.attempts, 3);

        // If no leader ever emerges, the typed error (with its hint) is
        // what comes back — not a generic timeout.
        let mut f = LossyFabric::reliable();
        let out = with_retry(
            &RetryPolicy::default(),
            &mut f,
            SimTime::ZERO,
            SimDuration::from_micros(10),
            |_| -> Result<()> {
                Err(FlexError::NoLeader {
                    hint: Some(2),
                    retry_after: SimDuration::from_millis(300),
                })
            },
        );
        match out.result {
            Err(FlexError::NoLeader { hint: Some(2), .. }) => {}
            other => panic!("expected the hinted NoLeader back, got {other:?}"),
        }
    }

    #[test]
    fn drpc_retry_under_30_percent_loss_always_succeeds() {
        let mut reg = ServiceRegistry::new();
        reg.register("mig", NodeId(1), 1, ExecutionSite::DataPlane)
            .unwrap();
        let mut fabric = LossyFabric::new(0.3, 99);
        // Generous attempt/deadline budget: at 30% loss a single attempt
        // succeeds with p = 0.7² = 0.49, so 16 attempts push the per-call
        // failure odds below 1 in 10⁴.
        let policy = RetryPolicy {
            max_attempts: 16,
            deadline: SimDuration::from_secs(120),
            ..RetryPolicy::default()
        };
        let mut ok = 0;
        let mut attempts = 0;
        for i in 0..200u64 {
            let out = invoke_with_retry(
                &mut reg,
                &mut fabric,
                &policy,
                "mig",
                NodeId(2),
                &[i],
                3,
                SimTime::from_millis(i),
            );
            attempts += out.attempts;
            if out.is_ok() {
                ok += 1;
            }
        }
        assert_eq!(ok, 200, "every call eventually succeeds under 30% loss");
        assert!(attempts > 200, "some calls needed retries");
    }
}
