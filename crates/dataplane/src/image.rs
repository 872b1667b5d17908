//! Sealed program images and the configuration digest built on them.
//!
//! A [`ProgramImage`] is a program bundle that has passed the header
//! registry build, the type checker and the verifier, frozen behind an
//! `Arc`. It is the unit the control path moves: a coordinator seals a
//! target once ([`SealedTargets`]) and every device, shadow and
//! intended-state record of that operation shares the one image instead
//! of re-checking the bundle (`DESIGN.md` §18); the bundle inside shares
//! its declarations with the bundle it was sealed from (§23). The only
//! constructor is [`ProgramImage::seal`] and nothing hands out `&mut`
//! access, so holding an image is proof the program was checked; every
//! entry point that takes a program takes a [`SealTarget`].
//!
//! The configuration digest splits along the same line, in two levels
//! (`DESIGN.md` §9): the expensive *code digest* (headers + pretty-printed
//! source) is folded once at seal time ([`ProgramImage::code_digest`]),
//! each table's entries have a digest of their own ([`table_digest`],
//! memoised by whoever holds the table), and [`root_digest`] folds the
//! code digest with the table digests in declaration order.
//! [`config_digest_of`] is the from-scratch reference with the identical
//! value.

use crate::device::InstalledProgram;
use crate::reconfig::ReconfigPlan;
use crate::state::StateLayout;
use crate::table::{KeyMatch, TableEntry};
use flexnet_lang::bytecode::CompiledProgram;
use flexnet_lang::diff::ProgramBundle;
use flexnet_lang::headers::HeaderRegistry;
use flexnet_lang::typecheck::check_program;
use flexnet_lang::verifier::verify_program;
use flexnet_types::hash::{fnv1a, mix, FNV_OFFSET};
use flexnet_types::Result;
use std::fmt::{self, Write as _};
use std::sync::{Arc, OnceLock};

/// An FNV-1a state as a text sink: what is written is folded, not kept.
struct FnvSink(u64);

impl fmt::Write for FnvSink {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 = fnv1a(self.0, s.as_bytes());
        Ok(())
    }
}

/// The code digest: FNV-1a over the bundle's headers and pretty-printed
/// source. The printer writes straight into the fold — the bytes of
/// `{hdr:?}` and `to_source()`, never materialized.
fn code_digest_of(bundle: &ProgramBundle) -> u64 {
    let mut h = FnvSink(FNV_OFFSET);
    for hdr in &bundle.headers {
        let _ = write!(h, "{hdr:?}"); // the sink cannot fail
    }
    let _ = bundle.program.write_source(&mut h);
    h.0
}

/// One word into a running entry hash: a rotate, an xor and an odd
/// multiply.
fn fold_word(h: u64, w: u64) -> u64 {
    (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// The hash of one entry over its fields — each key match's kind and
/// values, the priority, the action's name and arguments — mixed so that
/// sums of them stay spread.
fn entry_hash(e: &TableEntry) -> u64 {
    let mut h = fold_word(e.matches.len() as u64, e.priority as u32 as u64);
    for m in &e.matches {
        h = match *m {
            KeyMatch::Exact(v) => fold_word(fold_word(h, 1), v),
            KeyMatch::Lpm {
                value,
                prefix_len,
                width,
            } => {
                let shape = 2 | u64::from(prefix_len) << 8 | u64::from(width) << 16;
                fold_word(fold_word(h, shape), value)
            }
            KeyMatch::Ternary { value, mask } => fold_word(fold_word(fold_word(h, 3), value), mask),
            KeyMatch::Range { lo, hi } => fold_word(fold_word(fold_word(h, 4), lo), hi),
        };
    }
    h = fold_word(h, fnv1a(FNV_OFFSET, e.action.action.as_bytes()));
    h = fold_word(h, e.action.args.len() as u64);
    mix(e.action.args.iter().fold(h, |h, &a| fold_word(h, a)))
}

/// The digest of table `name` holding `entries`: the wrapping sum of the
/// entries' hashes, so the order they were installed in does not matter
/// and a duplicate counts twice, mixed with the count and the table's
/// name. An empty table's digest is 0.
pub fn table_digest<'a>(name: &str, entries: impl IntoIterator<Item = &'a TableEntry>) -> u64 {
    let (sum, count) = entries.into_iter().fold((0u64, 0u64), |(sum, n), e| {
        (sum.wrapping_add(entry_hash(e)), n + 1)
    });
    if count == 0 {
        return 0;
    }
    mix(mix(sum.wrapping_add(count)) ^ fnv1a(FNV_OFFSET, name.as_bytes()))
}

/// The configuration digest: `code` folded with each table's digest in
/// declaration order. An empty table folds as nothing, so a program with
/// no entries digests to its code digest.
pub fn root_digest(code: u64, tables: impl IntoIterator<Item = u64>) -> u64 {
    tables
        .into_iter()
        .filter(|&t| t != 0)
        .fold(code, |h, t| mix(h ^ t))
}

/// A configuration digest's two levels: the code digest and one
/// [`table_digest`] per declared table, in declaration order, which
/// [`root_digest`] folds into the configuration digest. A device reports
/// them to the resync probe, which repairs only the tables whose digests
/// differ from intent while the code digests agree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestLevels {
    /// The program's code digest.
    pub code: u64,
    /// One digest per declared table, in declaration order.
    pub tables: Vec<u64>,
}

/// Cheap deterministic content digest over one device's *configuration*:
/// the program bundle (headers + pretty-printed source) and every
/// installed table entry, per table and order-insensitive within a table
/// (controllers and devices may install entries in different orders).
///
/// Volatile runtime state (counters, registers, map contents) and
/// device-local version numbers are deliberately excluded: the digest
/// must be computable by the controller from its intended-state record
/// alone, and restarts legitimately reset both. Two equal digests mean
/// "same program, same entries" — the anti-entropy equality the resync
/// protocol checks in every heartbeat.
///
/// This is the from-scratch reference: it pretty-prints the whole program
/// and hashes every entry on every call. An entry of a table the program
/// does not declare has no place on a device and is not folded. Devices
/// and the intended-state store answer from memoised levels — the
/// image's code digest and a digest kept per table — with the same value,
/// which the property tests hold them to.
pub fn config_digest_of(bundle: &ProgramBundle, entries: &[(String, TableEntry)]) -> u64 {
    let tables = bundle.program.tables.iter().map(|d| {
        let held = entries.iter().filter(|(t, _)| *t == d.name).map(|(_, e)| e);
        table_digest(&d.name, held)
    });
    root_digest(code_digest_of(bundle), tables)
}

/// A checked, verified, immutable program bundle (see the module docs).
#[derive(Debug)]
pub struct ProgramImage {
    bundle: ProgramBundle,
    registry: HeaderRegistry,
    code_digest: u64,
    /// Where the program's state lives, shared by every device that runs
    /// the image.
    layout: Arc<StateLayout>,
    /// Bytecode for `layout` and the declaration order of the tables — the
    /// same under every `StateEncoding`; filled by the first device that
    /// materializes the image.
    compiled: OnceLock<Arc<CompiledProgram>>,
}

impl ProgramImage {
    /// Builds the header registry, type-checks and verifies `bundle`,
    /// folds its code digest and lays out its state.
    pub fn seal(bundle: ProgramBundle) -> Result<Arc<ProgramImage>> {
        let registry = HeaderRegistry::with_user_headers(&bundle.headers)?;
        check_program(&bundle.program, &registry)?;
        verify_program(&bundle.program, &registry)?;
        let code_digest = code_digest_of(&bundle);
        let layout = Arc::new(StateLayout::new(&bundle.program.states));
        Ok(Arc::new(ProgramImage {
            bundle,
            registry,
            code_digest,
            layout,
            compiled: Default::default(),
        }))
    }

    /// The sealed bundle (headers + program).
    pub fn bundle(&self) -> &ProgramBundle {
        &self.bundle
    }

    /// The header registry (builtins + bundle headers).
    pub fn registry(&self) -> &HeaderRegistry {
        &self.registry
    }

    /// The state layout every instance of this image shares.
    pub fn layout(&self) -> &Arc<StateLayout> {
        &self.layout
    }

    /// The code digest: the configuration digest's first level, folded
    /// once at seal time — and the whole configuration digest of this
    /// program while its tables are empty.
    pub fn code_digest(&self) -> u64 {
        self.code_digest
    }

    /// The shared bytecode, compiling it with `compile` if no device has
    /// yet. A failed compile is not remembered: every device reports it for
    /// itself.
    fn compiled_for(
        &self,
        compile: impl FnOnce() -> Result<CompiledProgram>,
    ) -> Result<Arc<CompiledProgram>> {
        if let Some(c) = self.compiled.get() {
            return Ok(c.clone());
        }
        let fresh = Arc::new(compile()?);
        Ok(self.compiled.get_or_init(|| fresh).clone())
    }
}

/// What an installed program executes: the shared sealed image, or — only
/// after [`Code::patch`], i.e. under the `UnsafeInPlace` ablation and
/// fault injection — a private, *unverified* copy that in-place ops have
/// mutated. The copy has no code digest memo and no shared bytecode.
#[derive(Debug, Clone)]
pub(crate) enum Code {
    Sealed(Arc<ProgramImage>),
    Patched(Box<(ProgramBundle, HeaderRegistry)>),
}

impl Code {
    pub(crate) fn parts(&self) -> (&ProgramBundle, &HeaderRegistry) {
        match self {
            Code::Sealed(image) => (&image.bundle, &image.registry),
            Code::Patched(p) => (&p.0, &p.1),
        }
    }

    pub(crate) fn image(&self) -> Option<&Arc<ProgramImage>> {
        match self {
            Code::Sealed(image) => Some(image),
            Code::Patched(_) => None,
        }
    }

    /// Mutable access for an in-place op. The sealed image is never
    /// touched: the first call copies its bundle — the lists, not the
    /// declarations, which an op replaces whole — and registry out.
    pub(crate) fn patch(&mut self) -> (&mut ProgramBundle, &mut HeaderRegistry) {
        if let Code::Sealed(image) = self {
            let copy = (image.bundle.clone(), image.registry.clone());
            *self = Code::Patched(Box::new(copy));
        }
        match self {
            Code::Patched(p) => (&mut p.0, &mut p.1),
            Code::Sealed(_) => unreachable!("unsealed above"),
        }
    }

    /// The code digest: the image's memo while sealed, folded afresh once
    /// patched.
    pub(crate) fn code_digest(&self) -> u64 {
        match self {
            Code::Sealed(image) => image.code_digest,
            Code::Patched(p) => code_digest_of(&p.0),
        }
    }

    /// Bytecode for the owner's current slot layout: the image's shared
    /// one while sealed (a sealed program's state always sits in the
    /// image's layout and its tables in declaration order — only in-place
    /// ops move slots, and they unseal), a private compile once patched.
    pub(crate) fn compiled_for(
        &self,
        compile: impl FnOnce() -> Result<CompiledProgram>,
    ) -> Result<Arc<CompiledProgram>> {
        match self {
            Code::Sealed(image) => image.compiled_for(compile),
            Code::Patched(_) => Ok(Arc::new(compile()?)),
        }
    }
}

/// A program on its way to a device or the intended-state store: a raw
/// bundle (sealed on acceptance), an already sealed image, a closure
/// producing one, or a target of a control operation
/// ([`SealedTargets::target`]).
///
/// Receivers call [`SealTarget::into_image`] or [`SealTarget::into_plan`]
/// at most once, and only after they have accepted the command (device up,
/// epoch not fenced, nothing pending, not a duplicate prepare) — so a
/// coordinator can seal lazily, and a target that does not seal fails
/// exactly where building the shadow would have.
pub trait SealTarget: Sized {
    /// The sealed image of this target.
    fn into_image(self) -> Result<Arc<ProgramImage>>;

    /// The plan that takes `active` — what the accepting device runs,
    /// `None` on an empty one — to this target. Only a target of a control
    /// operation has a plan to share; any other gets one of its own.
    fn into_plan(self, active: Option<&InstalledProgram>) -> Result<Arc<ReconfigPlan>> {
        Ok(Arc::new(ReconfigPlan::new(active, self.into_image()?)))
    }
}

impl SealTarget for ProgramBundle {
    fn into_image(self) -> Result<Arc<ProgramImage>> {
        ProgramImage::seal(self)
    }
}

impl SealTarget for Arc<ProgramImage> {
    fn into_image(self) -> Result<Arc<ProgramImage>> {
        Ok(self)
    }
}

impl<F: FnOnce() -> Result<Arc<ProgramImage>>> SealTarget for F {
    fn into_image(self) -> Result<Arc<ProgramImage>> {
        self()
    }
}

/// The sealed images and reconfiguration plans of one control operation:
/// each distinct target bundle is sealed at most once and every device
/// whose target is equal shares the one image; each distinct (active
/// image, target image) pair is planned at most once and every device on
/// that pair shares the one plan. Owned by the operation (a 2PC driver, a
/// recovery pass) and dropped with it — sharing is by ownership, not a
/// cache.
///
/// Targets are borrowed for the operation's lifetime, so a target
/// reference seen before is recognized by address — nobody can have
/// changed the bundle behind a live shared borrow — and bundles are
/// compared by value once per distinct reference, not once per use.
/// Images are recognized by address too: a plan is handed only to a device
/// whose active image *is* the one the plan was made from, which the plan
/// list keeps alive.
#[derive(Debug, Default)]
pub struct SealedTargets<'a> {
    /// Every target reference resolved so far, with its image.
    resolved: Vec<(&'a ProgramBundle, Arc<ProgramImage>)>,
    /// Every plan made so far, with the active image it starts from.
    plans: Vec<(Arc<ProgramImage>, Arc<ReconfigPlan>)>,
}

impl<'a> SealedTargets<'a> {
    /// The image of `bundle`, sealing it if this operation has not yet.
    pub fn image_for(&mut self, bundle: &'a ProgramBundle) -> Result<Arc<ProgramImage>> {
        let seen = self.resolved.iter().find(|(b, _)| std::ptr::eq(*b, bundle));
        if let Some((_, image)) = seen {
            return Ok(image.clone());
        }
        let image = match self.resolved.iter().find(|(_, i)| i.bundle() == bundle) {
            Some((_, image)) => image.clone(),
            None => ProgramImage::seal(bundle.clone())?,
        };
        self.resolved.push((bundle, image.clone()));
        Ok(image)
    }

    /// `bundle` as a target of this operation: sealed, and planned, when a
    /// device accepts it.
    pub fn target<'s>(&'s mut self, bundle: &'a ProgramBundle) -> OperationTarget<'s, 'a> {
        OperationTarget {
            sealed: self,
            bundle,
        }
    }
}

/// One target of a control operation ([`SealedTargets::target`]).
#[derive(Debug)]
pub struct OperationTarget<'s, 'a> {
    sealed: &'s mut SealedTargets<'a>,
    bundle: &'a ProgramBundle,
}

impl SealTarget for OperationTarget<'_, '_> {
    fn into_image(self) -> Result<Arc<ProgramImage>> {
        self.sealed.image_for(self.bundle)
    }

    /// The operation's plan for this (active image, target) pair. A device
    /// that runs no sealed image — empty, or patched in place — has no
    /// identity to share a plan under and gets one of its own.
    fn into_plan(self, active: Option<&InstalledProgram>) -> Result<Arc<ReconfigPlan>> {
        let target = self.sealed.image_for(self.bundle)?;
        let Some(from) = active.and_then(InstalledProgram::image) else {
            return Ok(Arc::new(ReconfigPlan::new(active, target)));
        };
        let plans = &mut self.sealed.plans;
        let made = plans
            .iter()
            .find(|(f, p)| Arc::ptr_eq(f, from) && Arc::ptr_eq(&p.target, &target));
        if let Some((_, plan)) = made {
            return Ok(plan.clone());
        }
        let plan = Arc::new(ReconfigPlan::new(active, target));
        plans.push((from.clone(), plan.clone()));
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::tests::bundle;
    use flexnet_lang::ast::ActionCall;
    use flexnet_types::FlexError;

    fn acl() -> ProgramBundle {
        bundle(
            "program fw kind any {
               table acl {
                 key { ipv4.src : exact; }
                 action deny() { drop(); }
                 size 16;
               }
               handler ingress(pkt) { apply acl; forward(1); }
             }",
        )
    }

    fn other() -> ProgramBundle {
        bundle("program q kind any { }")
    }

    fn deny(key: u64) -> (String, TableEntry) {
        let action = ActionCall {
            action: "deny".into(),
            args: vec![],
        };
        ("acl".to_string(), TableEntry::exact(&[key], action))
    }

    #[test]
    fn the_two_levels_fold_to_the_reference() {
        let image = ProgramImage::seal(acl()).unwrap();
        let entries = vec![deny(7), deny(3)];
        let acl_digest = table_digest("acl", entries.iter().map(|(_, e)| e));
        let want = config_digest_of(&acl(), &entries);
        assert_eq!(root_digest(image.code_digest(), [acl_digest]), want);
        let reversed: Vec<_> = entries.iter().rev().cloned().collect();
        assert_eq!(
            config_digest_of(&acl(), &reversed),
            want,
            "entry order does not matter"
        );
        let no_entries = config_digest_of(&acl(), &[]);
        assert_eq!(
            image.code_digest(),
            no_entries,
            "no entries: the code digest"
        );
        assert_eq!(table_digest("acl", []), 0);
        let twice = vec![deny(7), deny(7)];
        assert_ne!(
            config_digest_of(&acl(), &twice),
            config_digest_of(&acl(), &[deny(7)])
        );
    }

    #[test]
    fn a_table_digest_sees_every_field_of_every_entry() {
        let entry = |matches: Vec<KeyMatch>, priority, action: &str, args: Vec<u64>| TableEntry {
            matches,
            priority,
            action: ActionCall {
                action: action.into(),
                args,
            },
        };
        let lpm = |value, prefix_len| KeyMatch::Lpm {
            value,
            prefix_len,
            width: 32,
        };
        let base = entry(vec![KeyMatch::Exact(1), lpm(8, 24)], 0, "go", vec![2]);
        let ternary = KeyMatch::Ternary { value: 8, mask: 24 };
        let range = KeyMatch::Range { lo: 8, hi: 24 };
        let variants = [
            entry(vec![KeyMatch::Exact(2), lpm(8, 24)], 0, "go", vec![2]),
            entry(vec![KeyMatch::Exact(1), lpm(8, 16)], 0, "go", vec![2]),
            entry(vec![KeyMatch::Exact(1), lpm(9, 24)], 0, "go", vec![2]),
            entry(vec![KeyMatch::Exact(1), ternary], 0, "go", vec![2]),
            entry(vec![KeyMatch::Exact(1), range], 0, "go", vec![2]),
            entry(vec![KeyMatch::Exact(1), lpm(8, 24)], 1, "go", vec![2]),
            entry(vec![KeyMatch::Exact(1), lpm(8, 24)], 0, "stop", vec![2]),
            entry(vec![KeyMatch::Exact(1), lpm(8, 24)], 0, "go", vec![2, 0]),
            entry(vec![KeyMatch::Exact(1), lpm(8, 24)], 0, "go", vec![]),
        ];
        let d = |e: &TableEntry| table_digest("t", [e]);
        for v in &variants {
            assert_ne!(d(v), d(&base), "{v:?}");
        }
        assert_ne!(table_digest("u", [&base]), d(&base), "the name is folded");
    }

    #[test]
    fn the_streamed_code_digest_folds_exactly_the_printed_bytes() {
        let with_header = bundle(
            "header vxlan { fields { flags: 8; vni: 24; } follows udp when udp.dport == 4789; }
             program p kind any {
               map seen : map<u32, u8>[16];
               handler ingress(pkt) {
                 if (valid(vxlan) && !(map_has(seen, ipv4.src))) { map_put(seen, ipv4.src, 1); }
                 forward(hash(ipv4.src, vxlan.vni) % 4);
               }
             }",
        );
        for b in [acl(), with_header] {
            let mut printed: String = b.headers.iter().map(|h| format!("{h:?}")).collect();
            printed.push_str(&b.program.to_source());
            let expected = fnv1a(0xcbf2_9ce4_8422_2325, printed.as_bytes());
            assert_eq!(code_digest_of(&b), expected);
        }
    }

    #[test]
    fn targets_share_an_image_by_value_and_are_recognized_by_address() {
        // Equal bundles at two addresses, and a different one.
        let (a, a_again, other) = (acl(), acl(), other());
        let mut sealed = SealedTargets::default();
        let first = sealed.image_for(&a).unwrap();
        assert!(Arc::ptr_eq(&first, &sealed.image_for(&a).unwrap()));
        assert!(Arc::ptr_eq(&first, &sealed.image_for(&a_again).unwrap()));
        let second = sealed.image_for(&other).unwrap();
        assert!(!Arc::ptr_eq(&first, &second));
        assert_eq!(second.bundle(), &other);
        assert!(Arc::ptr_eq(&second, &sealed.image_for(&other).unwrap()));
        assert_eq!(
            sealed.resolved.len(),
            3,
            "one by-value search per distinct reference"
        );
    }

    #[test]
    fn prepares_plan_each_active_target_pair_once_and_only_for_sealed_actives() {
        use crate::{Architecture, Device, StateEncoding};
        use flexnet_lang::diff::ReconfigOp;
        use flexnet_types::{NodeId, SimTime};
        let (a, b) = (
            ProgramImage::seal(acl()).unwrap(),
            ProgramImage::seal(other()).unwrap(),
        );
        let target =
            bundle("program fw kind any { counter c; handler ingress(pkt) { forward(2); } }");
        let mut devs: Vec<Device> = [&a, &a, &b, &a, &a]
            .iter()
            .map(|image| {
                let mut d = Device::new(
                    NodeId(1),
                    Architecture::drmt_default(),
                    StateEncoding::StatefulTable,
                );
                d.install((*image).clone()).unwrap();
                d
            })
            .collect();
        // The last one is patched off its image: same program, no identity.
        let patched = devs[4].program_mut().unwrap();
        patched
            .apply_op(&ReconfigOp::RemoveHandler("nosuch".into()))
            .unwrap();
        assert!(patched.image().is_none());

        let mut sealed = SealedTargets::default();
        for dev in &mut devs {
            dev.begin_runtime_reconfig(sealed.target(&target), SimTime::ZERO)
                .unwrap();
        }
        assert_eq!(sealed.resolved.len(), 1);
        assert_eq!(
            sealed.plans.len(),
            2,
            "one for the three on `a`, one for `b`, none kept for the patched"
        );
        assert!(Arc::ptr_eq(&sealed.plans[0].0, &a) && Arc::ptr_eq(&sealed.plans[1].0, &b));
        let shared = |p: &Arc<ReconfigPlan>| Arc::ptr_eq(&p.target, &sealed.resolved[0].1);
        assert!(sealed.plans.iter().all(|(_, p)| shared(p)));
        // Each plan's carry map starts from its active image's layout, and
        // the devices on that image hold the plan until their flip.
        for ((from, plan), holders) in sealed.plans.iter().zip([3, 1]) {
            let carry = plan.carry.as_ref().expect("a device was running");
            assert!(Arc::ptr_eq(&carry.from, from.layout()));
            assert_eq!(Arc::strong_count(plan), 1 + holders);
        }
    }

    #[test]
    fn a_target_that_does_not_seal_fails_every_time_it_is_asked_for() {
        let bad = bundle("program p kind any { handler ingress(pkt) { count(nosuch); } }");
        let mut sealed = SealedTargets::default();
        assert!(matches!(sealed.image_for(&bad), Err(FlexError::Type(_))));
        assert!(matches!(sealed.image_for(&bad), Err(FlexError::Type(_))));
        assert!(sealed.resolved.is_empty());
    }

    #[test]
    fn seal_rejects_what_install_rejected() {
        let ill_typed =
            bundle("program p kind any { handler ingress(pkt) { count(nosuch); forward(1); } }");
        assert!(matches!(
            ProgramImage::seal(ill_typed),
            Err(FlexError::Type(_))
        ));
        let unverifiable = bundle(
            "program p kind any {
               register r : u64[16];
               handler ingress(pkt) { reg_write(r, hash(ipv4.src), 1); forward(1); }
             }",
        );
        assert!(matches!(
            ProgramImage::seal(unverifiable),
            Err(FlexError::Verify(_))
        ));
    }
}
