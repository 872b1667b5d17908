//! Datapath composition: laying tenant extension programs atop the
//! infrastructure program.
//!
//! Paper §3 (scenario) and §3.2: the network owner maintains an
//! "infrastructure" program; tenants inject "extension" programs, which are
//! "admitted by the network owner after access control validation" and
//! "isolated from each other and from the infrastructure code via, e.g.,
//! VLAN-based isolation mechanisms". Composition must also detect
//! "logically-sharable code that present\[s\] optimization opportunities or
//! conflicting datapaths that need to be resolved".
//!
//! Composition splits along what depends on *one* tenant and what depends
//! on *the set*, so that a tenant arrival costs what it changes:
//!
//! [`isolate`] turns one extension into a [`Fragment`], looking at nothing
//! but that extension and the infrastructure:
//!
//! 1. **Access control** — rejects extensions that reference state, tables,
//!    or handlers they did not declare (the only cross-boundary interface is
//!    invoking an infra-`provide`d dRPC service), and imports of services
//!    the infrastructure does not provide with that arity.
//! 2. **Namespacing** — renames every tenant element to `t<id>_<name>` and
//!    rewrites all references, so tenants can never collide with each other
//!    or the infrastructure.
//! 3. **VLAN guards** — wraps each tenant `ingress` body in
//!    `if (valid(vlan) && vlan.vid == <tenant vlan>) { … }`, so a tenant's
//!    code only ever sees its own traffic.
//!
//! [`assemble`] lays any number of fragments over the infrastructure:
//!
//! 4. **Conflict detection** — incompatible redeclarations of the same
//!    header type and duplicate `provide`d services are hard errors.
//! 5. **Sharing** — structurally identical *stateless* tables that
//!    fragments brought are deduplicated into a single shared table; the
//!    infrastructure's own tables are never shared, whatever their names.
//!
//! [`compose`] is the from-scratch reference: isolate each extension,
//! assemble the lot. A holder of fragments (the controller's tenant
//! manager) reaches the same composition by isolating only the newcomer.
//! Errors come in one order on both routes: header clashes first, then
//! tenant by tenant in the order given, each tenant's faults in the order
//! its program declares them.

use crate::ast::*;
use crate::diff::ProgramBundle;
use flexnet_types::{FlexError, Result, TenantId, VlanId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A tenant extension awaiting composition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantExtension {
    /// The owning tenant.
    pub tenant: TenantId,
    /// The VLAN isolating this tenant's traffic.
    pub vlan: VlanId,
    /// The extension program (plus any header types it brings).
    pub bundle: ProgramBundle,
}

/// What composition did, for reporting and tests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompositionReport {
    /// Number of tenant extensions composed.
    pub tenants: usize,
    /// Number of tenant tables eliminated by sharing.
    pub shared_tables: usize,
}

/// The result of composing extensions onto the infrastructure program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Composition {
    /// The composed bundle, ready for checking/verification/compilation.
    pub bundle: ProgramBundle,
    /// Composition statistics.
    pub report: CompositionReport,
}

/// One admitted extension, isolated: access-checked, namespaced and
/// VLAN-guarded, ready to be laid over the infrastructure by [`assemble`].
///
/// Nothing in a fragment depends on any other tenant — only on its own
/// extension and on the infrastructure it was isolated against — so a
/// fragment stays valid while other tenants come and go. The only
/// constructor is [`isolate`]. The namespaced declarations are built once,
/// here; every composition the fragment is laid into shares them.
#[derive(Debug, PartialEq, Eq)]
pub struct Fragment {
    tenant: TenantId,
    /// Header types the extension brings, as declared.
    headers: Vec<Arc<HeaderDecl>>,
    /// Namespaced state.
    states: Vec<Arc<StateDecl>>,
    /// Namespaced tables, action bodies rewritten.
    tables: Vec<Arc<TableDecl>>,
    /// Provided services: the name as the tenant wrote it, and the
    /// namespaced declaration.
    provides: Vec<(String, Arc<ServiceDecl>)>,
    /// One VLAN-guarded `if` per `ingress` handler. The merged `ingress`
    /// body is one `Vec<Stmt>`, so these are what an assembly copies.
    guards: Vec<Stmt>,
    /// Every other handler, namespaced.
    handlers: Vec<Arc<Handler>>,
    /// (original, namespaced) for each state and table.
    renamed: Vec<(String, String)>,
}

/// The tenant namespace prefix for an element name.
pub fn tenant_prefix(tenant: TenantId) -> String {
    format!("t{}_", tenant.raw())
}

/// Composes the infrastructure bundle with tenant extensions, from scratch.
pub fn compose(infra: &ProgramBundle, extensions: &[TenantExtension]) -> Result<Composition> {
    let mut assembly = Assembly::begin(
        infra,
        extensions.iter().map(|e| (e.tenant, &e.bundle.headers[..])),
    )?;
    for ext in extensions {
        // A tenant with several faults reports the one its program declares
        // first, so what preceded an isolation fault is laid down — and
        // checked against the tenants before it — ahead of reporting it.
        let (mut fragment, fault) = isolate_until_fault(infra, ext);
        let guards = std::mem::take(&mut fragment.guards);
        assembly.add(&fragment, guards)?;
        if let Some(fault) = fault {
            return Err(fault);
        }
    }
    Ok(assembly.finish())
}

/// Isolates one extension against `infra`: access control, the import
/// check, `t<id>_` namespacing and the VLAN guard (module docs, 1–3).
pub fn isolate(infra: &ProgramBundle, ext: &TenantExtension) -> Result<Fragment> {
    match isolate_until_fault(infra, ext) {
        (fragment, None) => Ok(fragment),
        (_, Some(fault)) => Err(fault),
    }
}

/// Lays `fragments`, in the order given, over `infra`: header merge,
/// provider uniqueness, tenant guards ahead of the infrastructure
/// `ingress`, table sharing (module docs, 4–5). Every fragment must have
/// been isolated against this `infra`.
pub fn assemble(infra: &ProgramBundle, fragments: &[&Fragment]) -> Result<Composition> {
    let headers = fragments.iter().map(|f| (f.tenant, &f.headers[..]));
    let mut assembly = Assembly::begin(infra, headers)?;
    for fragment in fragments {
        assembly.add(fragment, fragment.guards.iter().cloned())?;
    }
    Ok(assembly.finish())
}

/// [`isolate`], returning what was built before the first fault beside it.
fn isolate_until_fault(
    infra: &ProgramBundle,
    ext: &TenantExtension,
) -> (Fragment, Option<FlexError>) {
    let program = &ext.bundle.program;
    let prefix = tenant_prefix(ext.tenant);
    let namespaced = |name: &String| format!("{prefix}{name}");
    let renamed = |name: &String| (name.clone(), namespaced(name));
    let mut frag = Fragment {
        tenant: ext.tenant,
        headers: ext.bundle.headers.clone(),
        states: Vec::new(),
        tables: Vec::new(),
        provides: Vec::new(),
        guards: Vec::new(),
        handlers: Vec::new(),
        renamed: (program.states.iter())
            .map(|s| renamed(&s.name))
            .chain(program.tables.iter().map(|t| renamed(&t.name)))
            .collect(),
    };
    if let Some(name) = undeclared_reference(program) {
        let fault = FlexError::Denied(format!(
            "{}: extension references `{name}` which it does not declare \
             (cross-program access is only allowed via dRPC services)",
            ext.tenant
        ));
        return (frag, Some(fault));
    }

    let renames: BTreeMap<String, String> = frag.renamed.iter().cloned().collect();
    for s in &program.states {
        let mut s = StateDecl::clone(s);
        s.name = renames[&s.name].clone();
        frag.states.push(Arc::new(s));
    }
    for t in &program.tables {
        let mut t = TableDecl::clone(t);
        t.name = renames[&t.name].clone();
        for a in &mut t.actions {
            rename_block(&mut a.body, &renames);
        }
        frag.tables.push(Arc::new(t));
    }
    for svc in &program.services {
        if svc.provided {
            let decl = ServiceDecl {
                name: namespaced(&svc.name),
                params: svc.params.clone(),
                provided: true,
            };
            frag.provides.push((svc.name.clone(), Arc::new(decl)));
            continue;
        }
        // Imported service: must be provided by the infrastructure, which
        // is also what declares it in the composed program.
        let provided = infra.program.services.iter();
        let fault = match provided.filter(|s| s.provided).find(|s| s.name == svc.name) {
            None => FlexError::Denied(format!(
                "tenant {} requires service `{}` which the infrastructure does not provide",
                ext.tenant, svc.name
            )),
            Some(infra_svc) if infra_svc.params.len() != svc.params.len() => {
                FlexError::Conflict(format!(
                    "tenant {} requires service `{}` with {} params, infra provides {}",
                    ext.tenant,
                    svc.name,
                    svc.params.len(),
                    infra_svc.params.len()
                ))
            }
            Some(_) => continue,
        };
        return (frag, Some(fault));
    }
    for h in &program.handlers {
        let mut body = h.body.clone();
        rename_block(&mut body, &renames);
        if h.name == "ingress" {
            // Guard the tenant's ingress code behind its VLAN.
            let guard = Expr::Bin(
                BinOp::LAnd,
                Box::new(Expr::Valid("vlan".to_string())),
                Box::new(Expr::eq(
                    Expr::field("vlan", "vid"),
                    Expr::Int(ext.vlan.0 as u64),
                )),
            );
            frag.guards
                .push(Stmt::If(Arc::new(guard), Arc::new(body), Arc::default()));
        } else {
            // Non-ingress handlers are installed namespaced.
            frag.handlers.push(Arc::new(Handler {
                name: namespaced(&h.name),
                body,
            }));
        }
    }
    (frag, None)
}

/// A composition under construction: the set-dependent half, shared by
/// [`compose`] and [`assemble`].
struct Assembly {
    out: ProgramBundle,
    report: CompositionReport,
    guards: Vec<Stmt>,
    /// How many tables the infrastructure declares: the composed tables
    /// from here on are the ones fragments brought.
    infra_tables: usize,
}

impl Assembly {
    /// Starts from the infrastructure and merges every tenant's headers,
    /// rejecting incompatible redeclarations.
    fn begin<'a>(
        infra: &ProgramBundle,
        headers: impl Iterator<Item = (TenantId, &'a [Arc<HeaderDecl>])>,
    ) -> Result<Assembly> {
        let mut out = infra.clone();
        for (tenant, declared) in headers {
            for h in declared {
                match out.headers.iter().find(|x| x.name == h.name) {
                    None => out.headers.push(h.clone()),
                    Some(existing) if existing == h => {} // identical: share
                    Some(_) => {
                        return Err(FlexError::Conflict(format!(
                            "tenant {tenant} redeclares header `{}` incompatibly",
                            h.name
                        )))
                    }
                }
            }
        }
        Ok(Assembly {
            infra_tables: out.program.tables.len(),
            out,
            report: CompositionReport::default(),
            guards: Vec::new(),
        })
    }

    /// Lays one tenant's fragment down after those already added: its
    /// declarations by reference, and `guards` — its own, moved or copied —
    /// into the merged `ingress` body.
    fn add(&mut self, frag: &Fragment, guards: impl IntoIterator<Item = Stmt>) -> Result<()> {
        let program = &mut self.out.program;
        // Provided services must be unique across the composition: every
        // one so far — the infrastructure's and the earlier tenants' — is a
        // `provided` entry of the program being built.
        for (written, decl) in &frag.provides {
            let taken =
                |s: &Arc<ServiceDecl>| s.provided && (s.name == *written || s.name == decl.name);
            if program.services.iter().any(taken) {
                return Err(FlexError::Conflict(format!(
                    "tenant {} provides service `{written}` which is already provided",
                    frag.tenant
                )));
            }
            program.services.push(decl.clone());
        }
        program.states.extend(frag.states.iter().cloned());
        program.tables.extend(frag.tables.iter().cloned());
        program.handlers.extend(frag.handlers.iter().cloned());
        self.guards.extend(guards);
        self.report.tenants += 1;
        Ok(())
    }

    fn finish(mut self) -> Composition {
        let program = &mut self.out.program;
        // Tenant ingress guards run before the infrastructure ingress body,
        // so a tenant verdict (e.g. a tenant firewall drop) takes effect
        // first and fall-through continues into infrastructure processing.
        // This merged handler is the one declaration a composition builds.
        if !self.guards.is_empty() {
            let infra_ingress = program.handlers.iter_mut().find(|h| h.name == "ingress");
            if let Some(h) = &infra_ingress {
                self.guards.extend(h.body.iter().cloned());
            }
            let merged = Arc::new(Handler {
                name: "ingress".to_string(),
                body: self.guards,
            });
            match infra_ingress {
                Some(h) => *h = merged,
                None => program.handlers.insert(0, merged),
            }
        }
        self.report.shared_tables = dedup_stateless_tables(program, self.infra_tables);
        Composition {
            bundle: self.out,
            report: self.report,
        }
    }
}

/// The first name an extension program references without declaring it.
/// Required imports (non-provided services) are checked against the infra
/// program separately.
fn undeclared_reference(ext: &Program) -> Option<&str> {
    let mut declared: Vec<&str> = ext.states.iter().map(|s| s.name.as_str()).collect();
    declared.extend(ext.tables.iter().map(|t| t.name.as_str()));

    let mut refs = Vec::new();
    let mut push = |n| refs.push(n);
    for h in &ext.handlers {
        visit_names(&h.body, &mut push);
    }
    for t in &ext.tables {
        for a in &t.actions {
            visit_names(&a.body, &mut push);
        }
    }
    refs.into_iter().find(|r| !declared.contains(r))
}

/// Renames state/table references in a block according to `map`.
fn rename_block(block: &mut Block, map: &BTreeMap<String, String>) {
    visit_names_mut(block, &mut |n| {
        if let Some(new) = map.get(n) {
            *n = new.clone();
        }
    });
}

/// Whether a block names any state or table (blocks that don't are
/// shareable).
fn block_is_stateless(block: &Block) -> bool {
    let mut stateless = true;
    visit_names(block, &mut |_| stateless = false);
    stateless
}

/// Deduplicates structurally identical stateless tables among those a
/// fragment brought — `program.tables[infra_tables..]` — rewriting applies
/// to the surviving copy. Returns the number of tables eliminated.
fn dedup_stateless_tables(program: &mut Program, infra_tables: usize) -> usize {
    // The same table under another name.
    fn same_definition(a: &TableDecl, b: &TableDecl) -> bool {
        let TableDecl {
            name: _,
            keys,
            actions,
            default_action,
            size,
        } = a;
        (keys, actions, default_action, size) == (&b.keys, &b.actions, &b.default_action, &b.size)
    }

    let mut keep: Vec<Arc<TableDecl>> = Vec::with_capacity(program.tables.len());
    // Indices into `keep` of the tables a later copy may be folded into.
    let mut shareable: Vec<usize> = Vec::new();
    let mut renames: BTreeMap<String, String> = BTreeMap::new();
    let mut eliminated = 0usize;

    for (at, t) in std::mem::take(&mut program.tables).into_iter().enumerate() {
        if at >= infra_tables && t.actions.iter().all(|a| block_is_stateless(&a.body)) {
            if let Some(&i) = shareable.iter().find(|&&i| same_definition(&keep[i], &t)) {
                renames.insert(t.name.clone(), keep[i].name.clone());
                eliminated += 1;
                continue;
            }
            shareable.push(keep.len());
        }
        keep.push(t);
    }
    program.tables = keep;

    if renames.is_empty() {
        return 0;
    }
    // Only a declaration that names an eliminated table is rewritten, on a
    // copy of its own: the fragment it came from is shared and stays as is.
    let mentions = |block: &Block| {
        let mut hit = false;
        visit_names(block, &mut |r| hit |= renames.contains_key(r));
        hit
    };
    for h in &mut program.handlers {
        if mentions(&h.body) {
            rename_block(&mut Arc::make_mut(h).body, &renames);
        }
    }
    for t in &mut program.tables {
        if t.actions.iter().any(|a| mentions(&a.body)) {
            for a in &mut Arc::make_mut(t).actions {
                rename_block(&mut a.body, &renames);
            }
        }
    }
    eliminated
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::headers::HeaderRegistry;
    use crate::parser::parse_source;
    use crate::typecheck::check_program;
    use crate::verifier::verify_program;

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
               service provide migrate_state(dst: u32);
               table routing {
                 key { ipv4.dst : lpm; }
                 action out(port: u16) { forward(port); }
                 default out(0);
                 size 1024;
               }
               handler ingress(pkt) { count(total); apply routing; forward(0); }
             }",
        )
    }

    fn tenant_fw(tenant: u32, vlan: u16) -> TenantExtension {
        TenantExtension {
            tenant: TenantId(tenant),
            vlan: VlanId(vlan),
            bundle: bundle(
                "program fw kind any {
                   map blocked : map<u32, u8>[64];
                   handler ingress(pkt) {
                     if (map_get(blocked, ipv4.src) == 1) { drop(); }
                   }
                 }",
            ),
        }
    }

    #[test]
    fn composes_and_still_verifies() {
        let c = compose(&infra(), &[tenant_fw(1, 100), tenant_fw(2, 200)]).unwrap();
        assert_eq!(c.report.tenants, 2);
        // Namespaced state exists for both tenants.
        assert!(c.bundle.program.state("t1_blocked").is_some());
        assert!(c.bundle.program.state("t2_blocked").is_some());
        // Composed program passes the checker and verifier.
        let reg = HeaderRegistry::with_user_headers(&c.bundle.headers).unwrap();
        check_program(&c.bundle.program, &reg).unwrap();
        verify_program(&c.bundle.program, &reg).unwrap();
        // Tenant guards precede infra processing.
        let ingress = c.bundle.program.handler("ingress").unwrap();
        assert!(matches!(&ingress.body[0], Stmt::If(..)));
        assert!(matches!(&ingress.body[1], Stmt::If(..)));
        assert!(matches!(&ingress.body[2], Stmt::Count(c) if c == "total"));
    }

    #[test]
    fn vlan_guard_references_tenant_vlan() {
        let c = compose(&infra(), &[tenant_fw(7, 777)]).unwrap();
        let ingress = c.bundle.program.handler("ingress").unwrap();
        let Stmt::If(guard, body, _) = &ingress.body[0] else {
            panic!()
        };
        let printed = format!("{guard:?}");
        assert!(
            printed.contains("777"),
            "guard must test the tenant vlan: {printed}"
        );
        // Tenant body had its state refs renamed.
        let body_str = format!("{body:?}");
        assert!(body_str.contains("t7_blocked"));
    }

    #[test]
    fn extension_referencing_infra_state_denied() {
        let evil = TenantExtension {
            tenant: TenantId(3),
            vlan: VlanId(300),
            bundle: bundle("program evil { handler ingress(pkt) { count(total); } }"),
        };
        let err = compose(&infra(), &[evil]).unwrap_err();
        assert!(matches!(err, FlexError::Denied(_)), "{err}");
    }

    #[test]
    fn extension_applying_infra_table_denied() {
        let evil = TenantExtension {
            tenant: TenantId(3),
            vlan: VlanId(300),
            bundle: bundle("program evil { handler ingress(pkt) { apply routing; } }"),
        };
        assert!(compose(&infra(), &[evil]).is_err());
    }

    #[test]
    fn required_service_must_be_provided_by_infra() {
        let ok = TenantExtension {
            tenant: TenantId(1),
            vlan: VlanId(10),
            bundle: bundle(
                "program x {
                   service require migrate_state(dst: u32);
                   handler ingress(pkt) { invoke migrate_state(1); }
                 }",
            ),
        };
        compose(&infra(), &[ok]).unwrap();

        let bad = TenantExtension {
            tenant: TenantId(1),
            vlan: VlanId(10),
            bundle: bundle(
                "program x {
                   service require nonexistent(dst: u32);
                   handler ingress(pkt) { invoke nonexistent(1); }
                 }",
            ),
        };
        assert!(compose(&infra(), &[bad]).is_err());
    }

    #[test]
    fn identical_headers_shared_incompatible_rejected() {
        let a = TenantExtension {
            tenant: TenantId(1),
            vlan: VlanId(10),
            bundle: bundle(
                "header vxlan { fields { vni: 24; } follows udp when udp.dport == 4789; }
                 program x { handler ingress(pkt) { meta.m = 0; } }",
            ),
        };
        let b_same = TenantExtension {
            tenant: TenantId(2),
            vlan: VlanId(20),
            bundle: a.bundle.clone(),
        };
        let c = compose(&infra(), &[a.clone(), b_same]).unwrap();
        assert_eq!(
            c.bundle
                .headers
                .iter()
                .filter(|h| h.name == "vxlan")
                .count(),
            1
        );

        let b_diff = TenantExtension {
            tenant: TenantId(2),
            vlan: VlanId(20),
            bundle: bundle(
                "header vxlan { fields { vni: 32; } }
                 program x { handler ingress(pkt) { meta.m = 0; } }",
            ),
        };
        assert!(compose(&infra(), &[a, b_diff]).is_err());
    }

    #[test]
    fn stateless_tables_deduplicated() {
        let mk = |tenant, vlan| TenantExtension {
            tenant: TenantId(tenant),
            vlan: VlanId(vlan),
            bundle: bundle(
                "program x {
                   table screen {
                     key { tcp.dport : exact; }
                     action deny() { drop(); }
                     size 16;
                   }
                   handler ingress(pkt) { apply screen; }
                 }",
            ),
        };
        let c = compose(&infra(), &[mk(1, 10), mk(2, 20)]).unwrap();
        assert_eq!(c.report.shared_tables, 1);
        // Only one copy survives, and both tenants' applies point at it.
        let screens: Vec<_> = c
            .bundle
            .program
            .tables
            .iter()
            .filter(|t| t.name.ends_with("_screen"))
            .collect();
        assert_eq!(screens.len(), 1);
        let reg = HeaderRegistry::builtins();
        check_program(&c.bundle.program, &reg).unwrap();
    }

    #[test]
    fn infrastructure_tables_are_never_shared_whatever_their_names() {
        // Two identical stateless tables the infrastructure declares under
        // names a tenant prefix would produce: no fragment brought them,
        // so composition leaves both, and both applies, as written.
        let infra = bundle(
            "program infra kind switch {
               table t1_a { key { tcp.dport : exact; } action deny() { drop(); } size 16; }
               table t2_a { key { tcp.dport : exact; } action deny() { drop(); } size 16; }
               handler ingress(pkt) { apply t1_a; apply t2_a; forward(0); }
             }",
        );
        let c = compose(&infra, &[]).unwrap();
        assert_eq!(c.report.shared_tables, 0);
        assert_eq!(c.bundle, infra);
        // A tenant's copy of that table is not folded into either.
        let tenant = TenantExtension {
            tenant: TenantId(3),
            vlan: VlanId(30),
            bundle: bundle(
                "program x {
                   table a { key { tcp.dport : exact; } action deny() { drop(); } size 16; }
                   handler ingress(pkt) { apply a; }
                 }",
            ),
        };
        let c = compose(&infra, &[tenant]).unwrap();
        assert_eq!(c.report.shared_tables, 0);
        let names: Vec<&str> = c
            .bundle
            .program
            .tables
            .iter()
            .map(|t| t.name.as_str())
            .collect();
        assert_eq!(names, ["t1_a", "t2_a", "t3_a"]);
    }

    #[test]
    fn stateful_tables_not_shared() {
        let mk = |tenant, vlan| TenantExtension {
            tenant: TenantId(tenant),
            vlan: VlanId(vlan),
            bundle: bundle(
                "program x {
                   counter hits;
                   table screen {
                     key { tcp.dport : exact; }
                     action deny() { count(hits); drop(); }
                     size 16;
                   }
                   handler ingress(pkt) { apply screen; }
                 }",
            ),
        };
        let c = compose(&infra(), &[mk(1, 10), mk(2, 20)]).unwrap();
        assert_eq!(
            c.report.shared_tables, 0,
            "stateful tables must stay isolated"
        );
    }

    #[test]
    fn duplicate_provided_services_conflict() {
        let mk = |tenant, vlan| TenantExtension {
            tenant: TenantId(tenant),
            vlan: VlanId(vlan),
            bundle: bundle(
                "program x {
                   service provide scrub(level: u8);
                   handler ingress(pkt) { meta.m = 1; }
                 }",
            ),
        };
        // Two different tenants providing `scrub` are namespaced apart: OK.
        compose(&infra(), &[mk(1, 10), mk(2, 20)]).unwrap();
        // But a tenant colliding with an infra-provided service conflicts.
        let clash = TenantExtension {
            tenant: TenantId(3),
            vlan: VlanId(30),
            bundle: bundle(
                "program x {
                   service provide migrate_state(dst: u32);
                   handler ingress(pkt) { meta.m = 1; }
                 }",
            ),
        };
        assert!(compose(&infra(), &[clash]).is_err());
    }

    #[test]
    fn infra_without_ingress_gets_one() {
        let bare = bundle("program infra { counter c; }");
        let c = compose(&bare, &[tenant_fw(1, 100)]).unwrap();
        assert!(c.bundle.program.handler("ingress").is_some());
    }
}
