//! Data-plane RPC (dRPC) services: registry, discovery, and invocation
//! timing.
//!
//! Paper §3.4: "we envision that the infrastructure program will provide a
//! set of data plane RPC services for common utilities (e.g., app migration
//! or state replication). Tenant datapaths need not reinvent the wheel but
//! rather invoke these remote services via data plane RPC calls (dRPCs).
//! … Service discovery occurs either at control plane or via an in-network
//! RPC registry and discovery protocol in real time."
//!
//! The registry resolves service names to providers and models the latency
//! gap the paper motivates: a dRPC executes at data-plane speeds (per-hop
//! microseconds), while escalating the same operation through the
//! controller costs milliseconds.

use flexnet_types::{FlexError, NodeId, Result, SimDuration, SimTime};
use std::collections::BTreeMap;

/// State of a per-device circuit breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Calls flow normally; consecutive failures are counted.
    Closed,
    /// Calls are refused without touching the fabric until the cooldown
    /// elapses.
    Open,
    /// The cooldown elapsed: exactly one probe call is admitted. Success
    /// closes the breaker; failure re-opens it (cooldown restarts).
    HalfOpen,
}

impl BreakerState {
    /// A short stable label for logs and test output.
    pub fn label(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// A per-device circuit breaker for the controller→device RPC path.
///
/// The retry layer protects a *single exchange*; the breaker protects the
/// *destination*: once `threshold` consecutive exchanges against a device
/// have failed, further calls are refused locally with the retryable
/// [`FlexError::CircuitOpen`] — no fabric messages, no retry-policy
/// deadline burned — until `cooldown` elapses. Then exactly one probe is
/// admitted ([`BreakerState::HalfOpen`]); its success closes the breaker,
/// its failure re-opens it for another cooldown. During a brownout this
/// converts O(attempts × callers) wasted work per dead device into O(1)
/// probe per cooldown.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    state: BreakerState,
    threshold: u32,
    cooldown: SimDuration,
    consecutive_failures: u32,
    opened_at: SimTime,
    probe_in_flight: bool,
    /// Times this breaker transitioned Closed/HalfOpen → Open.
    pub opens: u64,
}

impl CircuitBreaker {
    /// A breaker opening after `threshold` consecutive failures, probing
    /// again after `cooldown`.
    pub fn new(threshold: u32, cooldown: SimDuration) -> CircuitBreaker {
        CircuitBreaker {
            state: BreakerState::Closed,
            threshold: threshold.max(1),
            cooldown,
            consecutive_failures: 0,
            opened_at: SimTime::ZERO,
            probe_in_flight: false,
            opens: 0,
        }
    }

    /// The breaker's current state as of `now` (Open lapses to HalfOpen
    /// once the cooldown has elapsed).
    pub fn state(&self, now: SimTime) -> BreakerState {
        match self.state {
            BreakerState::Open if now.saturating_since(self.opened_at) >= self.cooldown => {
                BreakerState::HalfOpen
            }
            s => s,
        }
    }

    /// Asks to place a call to the guarded device at `now`.
    ///
    /// `Ok(())` admits the call — the caller *must* then report the
    /// outcome via [`CircuitBreaker::on_success`] /
    /// [`CircuitBreaker::on_failure`]. `Err(CircuitOpen)` refuses it with
    /// the time until the next probe window.
    pub fn admit(&mut self, node: NodeId, now: SimTime) -> Result<()> {
        match self.state(now) {
            BreakerState::Closed => Ok(()),
            BreakerState::HalfOpen if !self.probe_in_flight => {
                self.state = BreakerState::HalfOpen;
                self.probe_in_flight = true;
                Ok(())
            }
            BreakerState::HalfOpen => Err(FlexError::CircuitOpen {
                node: u64::from(node.raw()),
                retry_after: self.cooldown,
            }),
            BreakerState::Open => Err(FlexError::CircuitOpen {
                node: u64::from(node.raw()),
                retry_after: (self.opened_at + self.cooldown).saturating_since(now),
            }),
        }
    }

    /// Reports a successful exchange: closes the breaker and resets the
    /// failure streak.
    pub fn on_success(&mut self) {
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
        self.probe_in_flight = false;
    }

    /// Reports a failed exchange at `now`: a closed breaker trips after
    /// `threshold` consecutive failures; a half-open probe failure
    /// re-opens immediately (the cooldown restarts).
    pub fn on_failure(&mut self, now: SimTime) {
        match self.state {
            BreakerState::HalfOpen => {
                self.trip(now);
            }
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.threshold {
                    self.trip(now);
                }
            }
            BreakerState::Open => {}
        }
    }

    fn trip(&mut self, now: SimTime) {
        self.state = BreakerState::Open;
        self.opened_at = now;
        self.probe_in_flight = false;
        self.consecutive_failures = 0;
        self.opens += 1;
    }
}

/// The controller's per-device breaker panel.
///
/// One [`CircuitBreaker`] per destination, created lazily from a shared
/// configuration. Exchange outcomes are classified: *transport-shaped*
/// failures (timeout, unavailable, no-leader) count against the breaker,
/// while semantic errors (type errors, not-found, conflicts) count as
/// contact — the device answered; the request was wrong.
#[derive(Debug)]
pub struct BreakerSet {
    threshold: u32,
    cooldown: SimDuration,
    breakers: BTreeMap<NodeId, CircuitBreaker>,
}

impl Default for BreakerSet {
    /// Trip after 3 consecutive transport failures; probe every 200 ms.
    fn default() -> BreakerSet {
        BreakerSet::new(3, SimDuration::from_millis(200))
    }
}

impl BreakerSet {
    /// A panel of breakers with shared `threshold` and `cooldown`.
    pub fn new(threshold: u32, cooldown: SimDuration) -> BreakerSet {
        BreakerSet {
            threshold,
            cooldown,
            breakers: BTreeMap::new(),
        }
    }

    /// The breaker guarding `node` (created closed on first use).
    pub fn breaker(&mut self, node: NodeId) -> &mut CircuitBreaker {
        self.breakers
            .entry(node)
            .or_insert_with(|| CircuitBreaker::new(self.threshold, self.cooldown))
    }

    /// The state of `node`'s breaker at `now` (Closed if never used).
    pub fn state(&self, node: NodeId, now: SimTime) -> BreakerState {
        self.breakers
            .get(&node)
            .map(|b| b.state(now))
            .unwrap_or(BreakerState::Closed)
    }

    /// Total Closed/HalfOpen → Open transitions across the panel.
    pub fn total_opens(&self) -> u64 {
        self.breakers.values().map(|b| b.opens).sum()
    }
}

/// Round-trip through control-plane software (the escalation path).
pub const CONTROLLER_RTT: SimDuration = SimDuration::from_millis(2);
/// Per-hop latency of an in-network dRPC message.
pub const DRPC_HOP_LATENCY: SimDuration = SimDuration::from_micros(5);

/// Where a service executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionSite {
    /// Entirely in the data plane of the provider device.
    DataPlane,
    /// In controller software (fallback for devices that can't host it).
    ControlPlane,
}

/// A registered service.
#[derive(Debug, Clone)]
pub struct ServiceRecord {
    /// Service name.
    pub name: String,
    /// Providing device.
    pub provider: NodeId,
    /// Declared parameter count (arity-checked on invoke).
    pub arity: usize,
    /// Where it executes.
    pub site: ExecutionSite,
}

/// One completed invocation (for stats and tests).
#[derive(Debug, Clone)]
pub struct Invocation {
    /// Service name.
    pub service: String,
    /// Calling device.
    pub caller: NodeId,
    /// Arguments.
    pub args: Vec<u64>,
    /// When the call was issued.
    pub at: SimTime,
    /// Modeled completion latency.
    pub latency: SimDuration,
}

/// The in-network service registry.
#[derive(Debug, Default)]
pub struct ServiceRegistry {
    services: BTreeMap<String, ServiceRecord>,
    /// Completed invocations.
    pub log: Vec<Invocation>,
}

impl ServiceRegistry {
    /// An empty registry.
    pub fn new() -> ServiceRegistry {
        ServiceRegistry::default()
    }

    /// Registers a provider. Re-registering an existing name is a conflict
    /// (the composition layer already namespaces tenant services).
    pub fn register(
        &mut self,
        name: &str,
        provider: NodeId,
        arity: usize,
        site: ExecutionSite,
    ) -> Result<()> {
        if self.services.contains_key(name) {
            return Err(FlexError::Conflict(format!(
                "service `{name}` already registered"
            )));
        }
        self.services.insert(
            name.to_string(),
            ServiceRecord {
                name: name.to_string(),
                provider,
                arity,
                site,
            },
        );
        Ok(())
    }

    /// Removes a service (provider program removed).
    pub fn unregister(&mut self, name: &str) -> Result<ServiceRecord> {
        self.services
            .remove(name)
            .ok_or_else(|| FlexError::NotFound(format!("service `{name}`")))
    }

    /// Discovery: resolves a service name.
    pub fn discover(&self, name: &str) -> Option<&ServiceRecord> {
        self.services.get(name)
    }

    /// All registered services.
    pub fn services(&self) -> impl Iterator<Item = &ServiceRecord> {
        self.services.values()
    }

    /// Invokes `name` from `caller`, `hops` network hops from the provider.
    /// Returns the modeled completion latency.
    pub fn invoke(
        &mut self,
        name: &str,
        caller: NodeId,
        args: &[u64],
        hops: u32,
        now: SimTime,
    ) -> Result<SimDuration> {
        let rec = self
            .services
            .get(name)
            .ok_or_else(|| FlexError::NotFound(format!("service `{name}`")))?;
        if rec.arity != args.len() {
            return Err(FlexError::Type(format!(
                "service `{name}` takes {} args, {} given",
                rec.arity,
                args.len()
            )));
        }
        let latency = match rec.site {
            // Request + response across the fabric at data-plane speeds.
            ExecutionSite::DataPlane => DRPC_HOP_LATENCY.saturating_mul(2 * hops.max(1) as u64),
            ExecutionSite::ControlPlane => CONTROLLER_RTT,
        };
        self.log.push(Invocation {
            service: name.to_string(),
            caller,
            args: args.to_vec(),
            at: now,
            latency,
        });
        Ok(latency)
    }

    /// Dispatches a batch of raw device invocations (as drained from the
    /// simulator's invocation log), returning per-call results.
    pub fn dispatch(
        &mut self,
        raw: &[(SimTime, NodeId, String, Vec<u64>)],
        hops: u32,
    ) -> Vec<Result<SimDuration>> {
        raw.iter()
            .map(|(at, caller, name, args)| self.invoke(name, *caller, args, hops, *at))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_discover_invoke() {
        let mut reg = ServiceRegistry::new();
        reg.register("migrate_state", NodeId(2), 1, ExecutionSite::DataPlane)
            .unwrap();
        assert!(reg.discover("migrate_state").is_some());
        assert!(reg.discover("nope").is_none());
        let lat = reg
            .invoke("migrate_state", NodeId(5), &[7], 3, SimTime::ZERO)
            .unwrap();
        assert_eq!(lat, DRPC_HOP_LATENCY.saturating_mul(6));
        assert_eq!(reg.log.len(), 1);
        assert_eq!(reg.log[0].args, vec![7]);
    }

    #[test]
    fn drpc_beats_controller_escalation() {
        let mut reg = ServiceRegistry::new();
        reg.register("fast", NodeId(1), 0, ExecutionSite::DataPlane)
            .unwrap();
        reg.register("slow", NodeId(1), 0, ExecutionSite::ControlPlane)
            .unwrap();
        let fast = reg.invoke("fast", NodeId(2), &[], 4, SimTime::ZERO).unwrap();
        let slow = reg.invoke("slow", NodeId(2), &[], 4, SimTime::ZERO).unwrap();
        assert!(
            slow.as_nanos() > fast.as_nanos() * 10,
            "control-plane {slow} must dwarf dRPC {fast}"
        );
    }

    #[test]
    fn arity_and_duplicates_checked() {
        let mut reg = ServiceRegistry::new();
        reg.register("s", NodeId(1), 2, ExecutionSite::DataPlane)
            .unwrap();
        assert!(reg.register("s", NodeId(2), 2, ExecutionSite::DataPlane).is_err());
        assert!(reg.invoke("s", NodeId(1), &[1], 1, SimTime::ZERO).is_err());
        assert!(reg.invoke("missing", NodeId(1), &[], 1, SimTime::ZERO).is_err());
    }

    #[test]
    fn unregister_roundtrip() {
        let mut reg = ServiceRegistry::new();
        reg.register("s", NodeId(1), 0, ExecutionSite::DataPlane)
            .unwrap();
        let rec = reg.unregister("s").unwrap();
        assert_eq!(rec.provider, NodeId(1));
        assert!(reg.unregister("s").is_err());
    }

    #[test]
    fn breaker_walks_closed_open_halfopen_closed() {
        let mut b = CircuitBreaker::new(3, SimDuration::from_millis(200));
        let n = NodeId(5);
        let t0 = SimTime::from_secs(1);
        assert_eq!(b.state(t0), BreakerState::Closed);
        // Two failures: still closed (threshold is 3).
        b.admit(n, t0).unwrap();
        b.on_failure(t0);
        b.admit(n, t0).unwrap();
        b.on_failure(t0);
        assert_eq!(b.state(t0), BreakerState::Closed);
        // Third consecutive failure trips it.
        b.admit(n, t0).unwrap();
        b.on_failure(t0);
        assert_eq!(b.state(t0), BreakerState::Open);
        assert_eq!(b.opens, 1);
        // Refused during cooldown, with the remaining wait.
        let err = b.admit(n, t0 + SimDuration::from_millis(50)).unwrap_err();
        match err {
            FlexError::CircuitOpen { node, retry_after } => {
                assert_eq!(node, 5);
                assert_eq!(retry_after, SimDuration::from_millis(150));
            }
            other => panic!("expected CircuitOpen, got {other:?}"),
        }
        assert!(err.is_retryable());
        // Cooldown elapsed: exactly one probe is admitted.
        let t1 = t0 + SimDuration::from_millis(200);
        assert_eq!(b.state(t1), BreakerState::HalfOpen);
        b.admit(n, t1).unwrap();
        assert!(
            matches!(b.admit(n, t1), Err(FlexError::CircuitOpen { .. })),
            "second concurrent probe refused"
        );
        // Probe success closes the breaker and resets the streak.
        b.on_success();
        assert_eq!(b.state(t1), BreakerState::Closed);
        b.admit(n, t1).unwrap();
        b.on_failure(t1);
        assert_eq!(b.state(t1), BreakerState::Closed, "streak was reset");
    }

    #[test]
    fn failed_probe_reopens_for_a_fresh_cooldown() {
        let mut b = CircuitBreaker::new(1, SimDuration::from_millis(100));
        let n = NodeId(2);
        b.admit(n, SimTime::ZERO).unwrap();
        b.on_failure(SimTime::ZERO); // threshold 1: open immediately
        let t1 = SimTime::from_millis(100);
        b.admit(n, t1).unwrap(); // half-open probe
        b.on_failure(t1); // probe failed
        assert_eq!(b.opens, 2);
        assert_eq!(b.state(t1 + SimDuration::from_millis(99)), BreakerState::Open);
        assert_eq!(
            b.state(t1 + SimDuration::from_millis(100)),
            BreakerState::HalfOpen,
            "cooldown restarted from the failed probe"
        );
    }

    #[test]
    fn breaker_set_keeps_one_breaker_per_node() {
        let mut set = BreakerSet::new(2, SimDuration::from_millis(100));
        let n = NodeId(7);
        let t = SimTime::from_secs(1);
        assert_eq!(set.state(n, t), BreakerState::Closed, "never used: closed");
        for _ in 0..2 {
            set.breaker(n).admit(n, t).unwrap();
            set.breaker(n).on_failure(t);
        }
        assert_eq!(set.state(n, t), BreakerState::Open);
        assert_eq!(set.total_opens(), 1);
        let refused = set.breaker(n).admit(n, t + SimDuration::from_millis(10));
        assert!(matches!(refused, Err(FlexError::CircuitOpen { .. })));
        // Other devices are unaffected.
        assert!(set.breaker(NodeId(8)).admit(NodeId(8), t).is_ok());
        // After the cooldown, the probe is admitted and closes the breaker.
        let t2 = t + SimDuration::from_millis(120);
        set.breaker(n).admit(n, t2).unwrap();
        set.breaker(n).on_success();
        assert_eq!(set.state(n, t2), BreakerState::Closed);
    }

    #[test]
    fn dispatch_batches_device_logs() {
        let mut reg = ServiceRegistry::new();
        reg.register("mig", NodeId(1), 1, ExecutionSite::DataPlane)
            .unwrap();
        let raw = vec![
            (SimTime::ZERO, NodeId(3), "mig".to_string(), vec![9]),
            (SimTime::ZERO, NodeId(3), "unknown".to_string(), vec![]),
        ];
        let results = reg.dispatch(&raw, 2);
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
        assert_eq!(reg.log.len(), 1);
    }
}
