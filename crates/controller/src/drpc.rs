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
        let fast = reg
            .invoke("fast", NodeId(2), &[], 4, SimTime::ZERO)
            .unwrap();
        let slow = reg
            .invoke("slow", NodeId(2), &[], 4, SimTime::ZERO)
            .unwrap();
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
        assert!(reg
            .register("s", NodeId(2), 2, ExecutionSite::DataPlane)
            .is_err());
        assert!(reg.invoke("s", NodeId(1), &[1], 1, SimTime::ZERO).is_err());
        assert!(reg
            .invoke("missing", NodeId(1), &[], 1, SimTime::ZERO)
            .is_err());
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
