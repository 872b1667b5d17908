//! Elastic scaling of in-network apps: experiment E3's scaler.
//!
//! Paper §1.1 (real-time security): defenses are "elastic, capable of
//! scaling, replicating, and migrating to other locations based on changing
//! attack strengths and patterns"; §3.4 lists "elastic app scaling" among
//! the controller's duties.
//!
//! [`ElasticScaler`] turns load observations into replica-count decisions
//! with hysteresis (distinct scale-out and scale-in thresholds) and a
//! cooldown, so bursty attack traffic doesn't thrash the data plane with
//! reconfigurations.

use flexnet_types::{SimDuration, SimTime};

/// Scaling policy for one app.
#[derive(Debug, Clone, Copy)]
pub struct ScalingPolicy {
    /// Packets/second one replica handles comfortably.
    pub per_replica_pps: u64,
    /// Scale out when offered load exceeds this fraction of capacity.
    pub out_threshold: f64,
    /// Scale in when offered load falls below this fraction of capacity.
    pub in_threshold: f64,
    /// Minimum replica count (0 = app may be fully retired when idle).
    pub min_replicas: usize,
    /// Maximum replica count.
    pub max_replicas: usize,
    /// Minimum time between scaling actions.
    pub cooldown: SimDuration,
}

impl Default for ScalingPolicy {
    fn default() -> Self {
        ScalingPolicy {
            per_replica_pps: 1_000_000,
            out_threshold: 0.8,
            in_threshold: 0.3,
            min_replicas: 1,
            max_replicas: 8,
            cooldown: SimDuration::from_millis(500),
        }
    }
}

/// A scaling decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDecision {
    /// No change.
    Hold,
    /// Add this many replicas.
    Out(usize),
    /// Remove this many replicas.
    In(usize),
}

/// Tracks load and emits scaling decisions for one app.
#[derive(Debug)]
pub struct ElasticScaler {
    policy: ScalingPolicy,
    replicas: usize,
    last_action: SimTime,
    acted_once: bool,
}

impl ElasticScaler {
    /// A scaler starting at `initial_replicas`.
    pub fn new(policy: ScalingPolicy, initial_replicas: usize) -> ElasticScaler {
        ElasticScaler {
            policy,
            replicas: initial_replicas.clamp(policy.min_replicas, policy.max_replicas.max(1)),
            last_action: SimTime::ZERO,
            acted_once: false,
        }
    }

    /// Current replica count.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// The replica count that would comfortably serve `offered_pps`.
    fn desired(&self, offered_pps: u64) -> usize {
        let per = self.policy.per_replica_pps.max(1) as f64;
        let needed = (offered_pps as f64 / (per * self.policy.out_threshold)).ceil() as usize;
        needed.clamp(self.policy.min_replicas, self.policy.max_replicas)
    }

    /// Observes the offered load and decides. The decision is applied to
    /// the internal replica count when it is not `Hold`.
    pub fn observe(&mut self, offered_pps: u64, now: SimTime) -> ScaleDecision {
        if self.acted_once && now.saturating_since(self.last_action) < self.policy.cooldown {
            return ScaleDecision::Hold;
        }
        let capacity = self.replicas as u64 * self.policy.per_replica_pps;
        let util = if offered_pps == 0 {
            0.0
        } else if capacity == 0 {
            f64::INFINITY
        } else {
            offered_pps as f64 / capacity as f64
        };
        if util > self.policy.out_threshold && self.replicas < self.policy.max_replicas {
            let target = self.desired(offered_pps).max(self.replicas + 1);
            let add = target - self.replicas;
            self.replicas = target;
            self.last_action = now;
            self.acted_once = true;
            return ScaleDecision::Out(add);
        }
        if util < self.policy.in_threshold && self.replicas > self.policy.min_replicas {
            let target = self
                .desired(offered_pps)
                .min(self.replicas.saturating_sub(1));
            let target = target.max(self.policy.min_replicas);
            let remove = self.replicas - target;
            if remove > 0 {
                self.replicas = target;
                self.last_action = now;
                self.acted_once = true;
                return ScaleDecision::In(remove);
            }
        }
        ScaleDecision::Hold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> ScalingPolicy {
        ScalingPolicy {
            per_replica_pps: 1000,
            out_threshold: 0.8,
            in_threshold: 0.3,
            min_replicas: 1,
            max_replicas: 4,
            cooldown: SimDuration::from_millis(100),
        }
    }

    #[test]
    fn scales_out_under_attack_ramp() {
        let mut s = ElasticScaler::new(policy(), 1);
        // 3500 pps needs ceil(3500/800) = 5 -> clamped to 4.
        let d = s.observe(3500, SimTime::from_millis(0));
        assert_eq!(d, ScaleDecision::Out(3));
        assert_eq!(s.replicas(), 4);
    }

    #[test]
    fn scales_in_when_attack_subsides() {
        let mut s = ElasticScaler::new(policy(), 4);
        // 100 pps over 4000 capacity = 2.5% -> scale in.
        let d = s.observe(100, SimTime::from_secs(1));
        assert!(matches!(d, ScaleDecision::In(_)));
        assert!(s.replicas() < 4);
    }

    #[test]
    fn hysteresis_holds_in_the_middle_band() {
        let mut s = ElasticScaler::new(policy(), 2);
        // 1000 pps over 2000 capacity = 50%: between 30% and 80%.
        assert_eq!(s.observe(1000, SimTime::from_secs(1)), ScaleDecision::Hold);
        assert_eq!(s.replicas(), 2);
    }

    #[test]
    fn cooldown_suppresses_thrash() {
        let mut s = ElasticScaler::new(policy(), 1);
        assert!(matches!(
            s.observe(5000, SimTime::from_millis(10)),
            ScaleDecision::Out(_)
        ));
        // Immediately after, load drops — but cooldown holds.
        assert_eq!(s.observe(10, SimTime::from_millis(20)), ScaleDecision::Hold);
        // After cooldown, scale-in proceeds.
        assert!(matches!(
            s.observe(10, SimTime::from_millis(200)),
            ScaleDecision::In(_)
        ));
    }

    #[test]
    fn respects_min_and_max() {
        let mut s = ElasticScaler::new(policy(), 4);
        assert_eq!(
            s.observe(1_000_000, SimTime::from_secs(1)),
            ScaleDecision::Hold
        );
        assert_eq!(s.replicas(), 4, "already at max");
        let mut s = ElasticScaler::new(policy(), 1);
        assert_eq!(s.observe(0, SimTime::from_secs(1)), ScaleDecision::Hold);
        assert_eq!(s.replicas(), 1, "already at min");
    }

    #[test]
    fn min_zero_allows_full_retirement() {
        let mut p = policy();
        p.min_replicas = 0;
        let mut s = ElasticScaler::new(p, 1);
        assert_eq!(s.observe(0, SimTime::from_secs(1)), ScaleDecision::In(1));
        assert_eq!(s.replicas(), 0, "defense retired when attack gone");
        // Attack returns: scale out from zero.
        assert!(matches!(
            s.observe(5000, SimTime::from_secs(2)),
            ScaleDecision::Out(_)
        ));
    }
}
