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

/// The URI-keyed application registry. Live and retired records are kept
/// apart: a retired record stays (for audit and [`AppRegistry::lookup`])
/// but no query over live apps walks it, so a departure costs what is live,
/// not every app ever registered.
#[derive(Debug, Default)]
pub struct AppRegistry {
    /// Records that are running or migrating.
    live: BTreeMap<AppUri, AppRecord>,
    /// Retired records, until their URI is registered again.
    retired: BTreeMap<AppUri, AppRecord>,
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
        if self.live.contains_key(&uri) {
            return Err(FlexError::Conflict(format!(
                "app `{uri}` is already registered"
            )));
        }
        // Re-registering a retired URI starts a new generation.
        self.retired.remove(&uri);
        let id = AppId(self.next_id);
        self.next_id += 1;
        self.live.insert(
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
        self.live.get(uri).or_else(|| self.retired.get(uri))
    }

    /// Marks an app as migrating / running / retired.
    pub fn set_status(&mut self, uri: &AppUri, status: AppStatus) -> Result<()> {
        let (from, to) = match status {
            AppStatus::Retired => (&mut self.live, &mut self.retired),
            _ => (&mut self.retired, &mut self.live),
        };
        if let Some((key, rec)) = from.remove_entry(uri) {
            to.insert(key, rec);
        }
        let rec = to
            .get_mut(uri)
            .ok_or_else(|| FlexError::NotFound(format!("app `{uri}`")))?;
        rec.status = status;
        Ok(())
    }

    /// All non-retired apps owned by `tenant`, in URI order.
    pub fn apps_of_tenant(&self, tenant: TenantId) -> Vec<&AppRecord> {
        self.live
            .values()
            .filter(|r| r.owner == Some(tenant))
            .collect()
    }

    /// Number of running apps.
    pub fn running(&self) -> usize {
        self.live
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

    /// A departure walks live apps only: after 10 000 churns of distinct
    /// app names every retired record is still looked up, none is walked.
    #[test]
    fn live_queries_skip_the_retired_history_over_long_churn() {
        let mut reg = AppRegistry::new();
        for n in 0..10_000u32 {
            let tenant = TenantId(n % 8 + 1);
            if let Some(old) = reg.apps_of_tenant(tenant).first().map(|r| r.uri.clone()) {
                reg.set_status(&old, AppStatus::Retired).unwrap();
            }
            let uri = AppUri::new(&tenant.to_string(), &format!("app{n}")).unwrap();
            reg.register(uri, Some(tenant), placement_on(1), SimTime::ZERO)
                .unwrap();
            assert_eq!(reg.apps_of_tenant(tenant).len(), 1);
        }
        assert_eq!((reg.live.len(), reg.retired.len()), (8, 9_992));
        assert_eq!(reg.running(), 8);
        let first = AppUri::new("tenant1", "app0").unwrap();
        assert_eq!(reg.lookup(&first).unwrap().status, AppStatus::Retired);
        // Back to running: live again, and a second record of its tenant.
        reg.set_status(&first, AppStatus::Running).unwrap();
        assert_eq!(reg.apps_of_tenant(TenantId(1)).len(), 2);
        assert_eq!(reg.retired.len(), 9_991);
    }

    #[test]
    fn set_status_of_an_unknown_app_is_an_error() {
        let mut reg = AppRegistry::new();
        assert!(reg
            .set_status(&AppUri::infra("nope"), AppStatus::Running)
            .is_err());
    }
}
