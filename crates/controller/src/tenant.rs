//! Tenant lifecycle management.
//!
//! Paper §3 (scenario): "individual tenants dynamically arrive and depart
//! … Tenants provide 'extension' programs that are dynamically injected
//! into and removed from the network. … the extensions are admitted by the
//! network owner after access control validation. Extension programs are
//! isolated … via, e.g., VLAN-based isolation mechanisms. Tenant arrivals
//! trigger the generation of new VLAN configurations from the control
//! plane, as well as infrastructure program changes to accommodate the new
//! extensions. Departures achieve opposite effects."
//!
//! The manager keeps, beside each admitted extension, the [`Fragment`]
//! [`isolate`] made of it at admission. A fragment depends on nothing but
//! its own tenant and the infrastructure, so an arrival isolates the
//! newcomer alone and every composition — the one an arrival validates and
//! ships, the one after a departure — is one [`assemble`] over the kept
//! fragments in tenant-id order. The infrastructure program is fixed for
//! the manager's lifetime: the fragments were checked against it.

use flexnet_lang::compose::{
    assemble, isolate, Composition, CompositionReport, Fragment, TenantExtension,
};
use flexnet_lang::diff::ProgramBundle;
use flexnet_types::{FlexError, Result, TenantId, VlanId};
use std::collections::BTreeMap;

/// Manages tenant extensions and VLAN assignments over one infrastructure
/// program.
#[derive(Debug)]
pub struct TenantManager {
    infra: ProgramBundle,
    admitted: BTreeMap<TenantId, (TenantExtension, Fragment)>,
    next_vlan: u16,
    free_vlans: Vec<VlanId>,
}

impl TenantManager {
    /// A manager over `infra`.
    pub fn new(infra: ProgramBundle) -> TenantManager {
        TenantManager {
            infra,
            admitted: BTreeMap::new(),
            next_vlan: VlanId::MIN.0 + 99, // leave low VLANs to the operator
            free_vlans: Vec::new(),
        }
    }

    /// The infrastructure bundle.
    pub fn infra(&self) -> &ProgramBundle {
        &self.infra
    }

    /// Active tenants.
    pub fn tenants(&self) -> Vec<TenantId> {
        self.admitted.keys().copied().collect()
    }

    /// The VLAN assigned to `tenant`.
    pub fn vlan_of(&self, tenant: TenantId) -> Option<VlanId> {
        self.admitted.get(&tenant).map(|(ext, _)| ext.vlan)
    }

    /// Admits a tenant extension: assigns a VLAN and validates the
    /// extension by composing it with the current set (access control
    /// happens inside composition). Returns the assigned VLAN.
    pub fn arrive(&mut self, tenant: TenantId, bundle: ProgramBundle) -> Result<VlanId> {
        self.admit(tenant, bundle).map(|(vlan, _)| vlan)
    }

    /// [`TenantManager::arrive`], also returning the composition that
    /// admitted the tenant — what [`TenantManager::composed`] now is. A
    /// rejected arrival leaves the manager exactly as it was.
    pub(crate) fn admit(
        &mut self,
        tenant: TenantId,
        bundle: ProgramBundle,
    ) -> Result<(VlanId, Composition)> {
        if self.admitted.contains_key(&tenant) {
            return Err(FlexError::Conflict(format!(
                "{tenant} already has an extension installed"
            )));
        }
        // The VLAN is only taken out of the pool once the tenant is in.
        let vlan = match self.free_vlans.last() {
            Some(v) => *v,
            None => VlanId(self.next_vlan),
        };
        if !vlan.is_valid() {
            return Err(FlexError::Compile("VLAN space exhausted".into()));
        }
        let ext = TenantExtension {
            tenant,
            vlan,
            bundle,
        };
        let fragment = isolate(&self.infra, &ext)?;

        // Validate the composition that ships: the newcomer at its place
        // in tenant-id order, not last.
        let at = self.admitted.range(..tenant).count();
        let mut fragments: Vec<&Fragment> = self.admitted.values().map(|(_, f)| f).collect();
        fragments.insert(at, &fragment);
        let composition = assemble(&self.infra, &fragments).map_err(|shipped| {
            // Rejected. The admitted tenants compose without the newcomer,
            // so whatever clashed, the newcomer brought it: report it as the
            // walk that meets the newcomer last does, rather than naming
            // the admitted tenant the id-order walk happened to reach
            // second. Where that walk finds nothing, the shipped one stands.
            fragments.remove(at);
            fragments.push(&fragment);
            assemble(&self.infra, &fragments).err().unwrap_or(shipped)
        })?;

        if self.free_vlans.pop().is_none() {
            self.next_vlan += 1;
        }
        self.admitted.insert(tenant, (ext, fragment));
        Ok((vlan, composition))
    }

    /// Removes a tenant's extension, releasing its VLAN, and hands the
    /// extension back.
    pub fn depart(&mut self, tenant: TenantId) -> Result<TenantExtension> {
        let (ext, _) = self
            .admitted
            .remove(&tenant)
            .ok_or_else(|| FlexError::NotFound(format!("{tenant}")))?;
        self.free_vlans.push(ext.vlan);
        Ok(ext)
    }

    /// The current composed program (infra + all admitted extensions) —
    /// what the data plane should be running.
    pub fn composed(&self) -> Result<(ProgramBundle, CompositionReport)> {
        let fragments: Vec<&Fragment> = self.admitted.values().map(|(_, f)| f).collect();
        let c = assemble(&self.infra, &fragments)?;
        Ok((c.bundle, c.report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexnet_lang::parser::parse_source;

    fn bundle(src: &str) -> ProgramBundle {
        let file = parse_source(src).unwrap();
        ProgramBundle {
            headers: file.headers,
            program: file.programs.into_iter().next().unwrap(),
        }
    }

    fn infra() -> ProgramBundle {
        bundle(
            "program infra kind switch {
               counter total;
               handler ingress(pkt) { count(total); forward(0); }
             }",
        )
    }

    fn ext(name: &str) -> ProgramBundle {
        bundle(&format!(
            "program {name} kind any {{
               counter hits;
               handler ingress(pkt) {{ count(hits); }}
             }}"
        ))
    }

    #[test]
    fn arrive_assigns_distinct_vlans() {
        let mut tm = TenantManager::new(infra());
        let v1 = tm.arrive(TenantId(1), ext("a")).unwrap();
        let v2 = tm.arrive(TenantId(2), ext("b")).unwrap();
        assert_ne!(v1, v2);
        assert!(v1.is_valid() && v2.is_valid());
        assert_eq!(tm.tenants().len(), 2);
        assert_eq!(tm.vlan_of(TenantId(1)), Some(v1));
    }

    #[test]
    fn composed_grows_and_shrinks_with_churn() {
        let mut tm = TenantManager::new(infra());
        let (base, _) = tm.composed().unwrap();
        let base_states = base.program.states.len();

        tm.arrive(TenantId(1), ext("a")).unwrap();
        tm.arrive(TenantId(2), ext("b")).unwrap();
        let (grown, report) = tm.composed().unwrap();
        assert_eq!(report.tenants, 2);
        assert_eq!(grown.program.states.len(), base_states + 2);

        tm.depart(TenantId(1)).unwrap();
        let (shrunk, _) = tm.composed().unwrap();
        assert_eq!(shrunk.program.states.len(), base_states + 1);
        assert!(shrunk.program.state("t2_hits").is_some());
        assert!(shrunk.program.state("t1_hits").is_none());
    }

    #[test]
    fn duplicate_arrival_rejected() {
        let mut tm = TenantManager::new(infra());
        tm.arrive(TenantId(1), ext("a")).unwrap();
        assert!(tm.arrive(TenantId(1), ext("b")).is_err());
    }

    #[test]
    fn depart_unknown_rejected_and_vlan_reused() {
        let mut tm = TenantManager::new(infra());
        assert!(tm.depart(TenantId(9)).is_err());
        let v1 = tm.arrive(TenantId(1), ext("a")).unwrap();
        tm.depart(TenantId(1)).unwrap();
        let v2 = tm.arrive(TenantId(2), ext("b")).unwrap();
        assert_eq!(v1, v2, "released VLAN is recycled");
    }

    #[test]
    fn malicious_extension_rejected_and_vlan_released() {
        let mut tm = TenantManager::new(infra());
        // References infra state `total` -> denied by composition.
        let evil = bundle("program evil { handler ingress(pkt) { count(total); } }");
        let before = tm.tenants().len();
        assert!(tm.arrive(TenantId(3), evil).is_err());
        assert_eq!(tm.tenants().len(), before);
        // The VLAN that was tentatively allocated is reused next.
        let v = tm.arrive(TenantId(4), ext("ok")).unwrap();
        assert_eq!(v, VlanId(100));
    }

    /// The composition validated is the one shipped. Tenant 7 provides a
    /// service it named `t5_x`; tenant 5 then provides `x`, which
    /// namespaces to the same `t5_x`. Laid down with the newcomer last
    /// nothing clashes — in tenant-id order, which is what ships, tenant
    /// 7's name is already taken.
    #[test]
    fn arrival_is_validated_in_the_order_it_ships() {
        let provides = |svc: &str| {
            bundle(&format!(
                "program p kind any {{
                   service provide {svc}(level: u8);
                   handler ingress(pkt) {{ meta.m = 1; }}
                 }}"
            ))
        };
        let mut tm = TenantManager::new(infra());
        tm.arrive(TenantId(7), provides("t5_x")).unwrap();
        let before = tm.composed().unwrap();

        let err = tm.arrive(TenantId(5), provides("x")).unwrap_err();
        assert!(
            matches!(&err, FlexError::Conflict(m) if m.contains("tenant7") && m.contains("`t5_x`")),
            "{err}"
        );
        // Rejected means untouched: tenants, the next VLAN, the composition.
        assert_eq!(tm.tenants(), vec![TenantId(7)]);
        assert_eq!(tm.vlan_of(TenantId(5)), None);
        assert_eq!(tm.composed().unwrap(), before);
        assert_eq!(tm.arrive(TenantId(8), ext("ok")).unwrap(), VlanId(101));
    }

    /// A header clash the newcomer introduces is reported against the
    /// newcomer, whichever side of the admitted tenant its id falls.
    #[test]
    fn header_clash_names_the_newcomer() {
        let vxlan = |bits: u32| {
            bundle(&format!(
                "header vxlan {{ fields {{ vni: {bits}; }} follows udp when udp.dport == 4789; }}
                 program x {{ handler ingress(pkt) {{ meta.m = 0; }} }}"
            ))
        };
        let mut tm = TenantManager::new(infra());
        tm.arrive(TenantId(5), vxlan(24)).unwrap();
        for newcomer in [TenantId(3), TenantId(9)] {
            let err = tm.arrive(newcomer, vxlan(32)).unwrap_err();
            let expected = format!("tenant {newcomer} redeclares header `vxlan` incompatibly");
            assert!(
                matches!(&err, FlexError::Conflict(m) if *m == expected),
                "{err}"
            );
        }
        tm.arrive(TenantId(3), vxlan(24)).unwrap();
    }

    #[test]
    fn composed_still_verifies_under_churn() {
        let mut tm = TenantManager::new(infra());
        for t in 1..=5u32 {
            tm.arrive(TenantId(t), ext(&format!("x{t}"))).unwrap();
        }
        tm.depart(TenantId(3)).unwrap();
        let (bundle, _) = tm.composed().unwrap();
        let reg =
            flexnet_lang::headers::HeaderRegistry::with_user_headers(&bundle.headers).unwrap();
        flexnet_lang::typecheck::check_program(&bundle.program, &reg).unwrap();
        flexnet_lang::verifier::verify_program(&bundle.program, &reg).unwrap();
    }
}
