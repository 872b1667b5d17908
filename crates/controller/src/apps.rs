//! App-level management: the URI-named application registry.
//!
//! Paper §3.4: "the controller is able to 'name' in-network apps by their
//! URIs (instead of, say, IP addresses), and perform management operations
//! using the URI as a handle … application-centric abstractions are needed
//! as first-class primitives. Their translation into lower-level commands
//! … is done automatically by the FlexNet management system."

use flexnet_compiler::Placement;
use flexnet_types::{AppId, AppUri, FlexError, Result, SimTime, TenantId};
use std::collections::BTreeMap;

/// Lifecycle state of a managed app.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppStatus {
    /// Deployed and processing traffic.
    Running,
    /// Being moved between devices.
    Migrating,
    /// Removed from the network (record kept for audit).
    Retired,
}

/// One managed application instance.
#[derive(Debug, Clone)]
pub struct AppRecord {
    /// Dense numeric id.
    pub id: AppId,
    /// The management handle.
    pub uri: AppUri,
    /// Owner (`None` = infrastructure).
    pub owner: Option<TenantId>,
    /// Where its components run.
    pub placement: Placement,
    /// Lifecycle state.
    pub status: AppStatus,
    /// When it was registered.
    pub deployed_at: SimTime,
}

/// The URI-keyed application registry.
#[derive(Debug, Default)]
pub struct AppRegistry {
    by_uri: BTreeMap<AppUri, AppRecord>,
    next_id: u32,
}

impl AppRegistry {
    /// An empty registry.
    pub fn new() -> AppRegistry {
        AppRegistry::default()
    }

    /// Registers a newly deployed app.
    pub fn register(
        &mut self,
        uri: AppUri,
        owner: Option<TenantId>,
        placement: Placement,
        now: SimTime,
    ) -> Result<AppId> {
        if let Some(existing) = self.by_uri.get(&uri) {
            if existing.status != AppStatus::Retired {
                return Err(FlexError::Conflict(format!(
                    "app `{uri}` is already registered"
                )));
            }
        }
        let id = AppId(self.next_id);
        self.next_id += 1;
        self.by_uri.insert(
            uri.clone(),
            AppRecord {
                id,
                uri,
                owner,
                placement,
                status: AppStatus::Running,
                deployed_at: now,
            },
        );
        Ok(id)
    }

    /// Looks an app up by URI.
    pub fn lookup(&self, uri: &AppUri) -> Option<&AppRecord> {
        self.by_uri.get(uri)
    }

    /// Marks an app as migrating / running / retired.
    pub fn set_status(&mut self, uri: &AppUri, status: AppStatus) -> Result<()> {
        let rec = self
            .by_uri
            .get_mut(uri)
            .ok_or_else(|| FlexError::NotFound(format!("app `{uri}`")))?;
        rec.status = status;
        Ok(())
    }

    /// All non-retired apps owned by `tenant`.
    pub fn apps_of_tenant(&self, tenant: TenantId) -> Vec<&AppRecord> {
        self.by_uri
            .values()
            .filter(|r| r.status != AppStatus::Retired && r.owner == Some(tenant))
            .collect()
    }

    /// Number of running apps.
    pub fn running(&self) -> usize {
        self.by_uri
            .values()
            .filter(|r| r.status == AppStatus::Running)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexnet_types::NodeId;

    fn placement_on(node: u32) -> Placement {
        let mut p = Placement::default();
        p.assignments.insert("main".into(), NodeId(node));
        p
    }

    #[test]
    fn register_and_lookup_by_uri() {
        let mut reg = AppRegistry::new();
        let uri = AppUri::infra("telemetry");
        let id = reg
            .register(uri.clone(), None, placement_on(1), SimTime::ZERO)
            .unwrap();
        let rec = reg.lookup(&uri).unwrap();
        assert_eq!(rec.id, id);
        assert_eq!(rec.status, AppStatus::Running);
        assert_eq!(reg.running(), 1);
    }

    #[test]
    fn duplicate_uri_rejected_until_retired() {
        let mut reg = AppRegistry::new();
        let uri = AppUri::infra("fw");
        reg.register(uri.clone(), None, placement_on(1), SimTime::ZERO)
            .unwrap();
        assert!(reg
            .register(uri.clone(), None, placement_on(2), SimTime::ZERO)
            .is_err());
        reg.set_status(&uri, AppStatus::Retired).unwrap();
        // Re-registering a retired URI is allowed (new generation).
        reg.register(uri, None, placement_on(2), SimTime::ZERO)
            .unwrap();
    }

    #[test]
    fn tenant_queries_skip_retired_apps() {
        let mut reg = AppRegistry::new();
        let a = AppUri::new("tenant1", "fw").unwrap();
        let b = AppUri::new("tenant2", "lb").unwrap();
        reg.register(a.clone(), Some(TenantId(1)), placement_on(5), SimTime::ZERO)
            .unwrap();
        reg.register(b, Some(TenantId(2)), placement_on(6), SimTime::ZERO)
            .unwrap();
        assert_eq!(reg.apps_of_tenant(TenantId(1)).len(), 1);
        reg.set_status(&a, AppStatus::Retired).unwrap();
        assert_eq!(reg.apps_of_tenant(TenantId(1)).len(), 0);
    }

    #[test]
    fn set_status_of_an_unknown_app_is_an_error() {
        let mut reg = AppRegistry::new();
        assert!(reg
            .set_status(&AppUri::infra("nope"), AppStatus::Running)
            .is_err());
    }
}
