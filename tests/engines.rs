//! The reference interpreter's own tests and the bytecode VM held to it
//! program by program: verdicts, op counts, packet and state effects, and
//! traps at every gas budget. Both engines run against one name-keyed
//! [`interp::MemEnv`]; the VM reaches it through a slot-to-name bridge.
//! The lockstep oracle over whole devices is `fastpath_differential.rs`.

#[path = "common/interp.rs"]
mod interp;

mod interp_tests {
    use super::interp::*;
    use flexnet_lang::ast::ActionCall;
    use flexnet_lang::bytecode::ExecOutcome;
    use flexnet_lang::headers::HeaderRegistry;
    use flexnet_lang::parser::parse_program;
    use flexnet_lang::typecheck::check_program;
    use flexnet_lang::verifier::verify_program;
    use flexnet_types::hash::hash_values;
    use flexnet_types::{Packet, Trap, Verdict};

    fn run(src: &str, pkt: &mut Packet, env: &mut MemEnv) -> ExecOutcome {
        let p = parse_program(src).unwrap();
        let headers = HeaderRegistry::builtins();
        check_program(&p, &headers).unwrap();
        execute_metered(&p, "ingress", pkt, env, &headers, GAS_UNLIMITED).unwrap()
    }

    #[test]
    fn forward_verdict() {
        let mut pkt = Packet::tcp(1, 1, 2, 3, 4, 0);
        let mut env = MemEnv::new();
        let out = run(
            "program p { handler ingress(pkt) { forward(7); } }",
            &mut pkt,
            &mut env,
        );
        assert_eq!(out.verdict, Some(Verdict::Forward(7)));
        assert!(out.ops >= 2);
    }

    #[test]
    fn map_and_counter_state() {
        let mut pkt = Packet::tcp(1, 10, 2, 3, 4, 0);
        let mut env = MemEnv::new();
        let out = run(
            "program p {
               map m : map<u32, u32>[16];
               counter c;
               handler ingress(pkt) {
                 map_put(m, ipv4.src, map_get(m, ipv4.src) + 1);
                 count(c);
                 if (map_get(m, ipv4.src) >= 1) { drop(); }
                 forward(1);
               }
             }",
            &mut pkt,
            &mut env,
        );
        assert_eq!(out.verdict, Some(Verdict::Drop));
        assert_eq!(env.maps["m"][&10], 1);
        assert_eq!(env.counters["c"].0, 1);
    }

    #[test]
    fn table_hit_runs_action_with_params() {
        let mut pkt = Packet::tcp(1, 99, 2, 3, 4, 0);
        let mut env = MemEnv::new();
        env.install_entry(
            "acl",
            vec![99],
            ActionCall {
                action: "set_port".into(),
                args: vec![42],
            },
        );
        let out = run(
            "program p {
               table acl {
                 key { ipv4.src : exact; }
                 action set_port(port: u16) { forward(port); }
                 action deny() { drop(); }
                 default deny();
                 size 8;
               }
               handler ingress(pkt) { apply acl; }
             }",
            &mut pkt,
            &mut env,
        );
        assert_eq!(out.verdict, Some(Verdict::Forward(42)));
    }

    #[test]
    fn table_miss_runs_default() {
        let mut pkt = Packet::tcp(1, 1, 2, 3, 4, 0);
        let mut env = MemEnv::new();
        let out = run(
            "program p {
               table acl {
                 key { ipv4.src : exact; }
                 action deny() { drop(); }
                 default deny();
                 size 8;
               }
               handler ingress(pkt) { apply acl; forward(1); }
             }",
            &mut pkt,
            &mut env,
        );
        assert_eq!(out.verdict, Some(Verdict::Drop));
    }

    #[test]
    fn table_miss_without_default_falls_through() {
        let mut pkt = Packet::tcp(1, 1, 2, 3, 4, 0);
        let mut env = MemEnv::new();
        let out = run(
            "program p {
               table acl { key { ipv4.src : exact; } size 8; }
               handler ingress(pkt) { apply acl; forward(9); }
             }",
            &mut pkt,
            &mut env,
        );
        assert_eq!(out.verdict, Some(Verdict::Forward(9)));
    }

    #[test]
    fn registers_and_repeat() {
        let mut pkt = Packet::tcp(1, 1, 2, 3, 4, 0);
        let mut env = MemEnv::new();
        run(
            "program p {
               register r : u64[4];
               handler ingress(pkt) {
                 repeat (3) { reg_write(r, 0, reg_read(r, 0) + 2); }
                 forward(1);
               }
             }",
            &mut pkt,
            &mut env,
        );
        assert_eq!(env.regs["r"][0], 6);
    }

    #[test]
    fn meter_rejects_after_tokens_exhausted() {
        let mut env = MemEnv::new();
        env.meter_default_tokens = 2;
        let src = "program p {
            meter lim rate 1 burst 2;
            handler ingress(pkt) {
              if (meter_check(lim, ipv4.src)) { forward(1); } else { drop(); }
            }
          }";
        let mut pkt = Packet::tcp(1, 5, 2, 3, 4, 0);
        assert_eq!(
            run(src, &mut pkt, &mut env).verdict,
            Some(Verdict::Forward(1))
        );
        assert_eq!(
            run(src, &mut pkt, &mut env).verdict,
            Some(Verdict::Forward(1))
        );
        assert_eq!(run(src, &mut pkt, &mut env).verdict, Some(Verdict::Drop));
    }

    #[test]
    fn header_add_remove_and_validity() {
        let mut pkt = Packet::tcp(1, 1, 2, 3, 4, 0);
        let mut env = MemEnv::new();
        let out = run(
            "program p { handler ingress(pkt) {
               add_header(vlan);
               vlan.vid = 42;
               if (valid(vlan)) { meta.tagged = 1; }
               remove_header(vlan);
               if (!valid(vlan)) { forward(2); }
               drop();
             } }",
            &mut pkt,
            &mut env,
        );
        assert_eq!(out.verdict, Some(Verdict::Forward(2)));
        assert_eq!(pkt.metadata.get("tagged"), Some(&1));
        assert!(!has_header(&pkt, "vlan"));
    }

    #[test]
    fn vlan_inserted_after_eth() {
        let mut pkt = Packet::tcp(1, 1, 2, 3, 4, 0);
        let mut env = MemEnv::new();
        run(
            "program p { handler ingress(pkt) { add_header(vlan); forward(1); } }",
            &mut pkt,
            &mut env,
        );
        assert_eq!(pkt.headers().nth(1).unwrap().proto(), "vlan");
    }

    #[test]
    fn short_circuit_logical_ops() {
        // map_get on the rhs of && must not run when lhs is false: use a
        // meter with 0 tokens as an observable side effect.
        let mut env = MemEnv::new();
        env.meter_default_tokens = 5;
        let mut pkt = Packet::tcp(1, 1, 2, 3, 4, 0);
        run(
            "program p {
               meter lim rate 1 burst 1;
               handler ingress(pkt) {
                 if (1 == 2 && meter_check(lim, 0)) { drop(); }
                 forward(1);
               }
             }",
            &mut pkt,
            &mut env,
        );
        assert!(env.meters.get("lim").is_none_or(|m| m.is_empty()));
    }

    #[test]
    fn punt_recirculate_return() {
        let mut env = MemEnv::new();
        let mut pkt = Packet::tcp(1, 1, 2, 3, 4, 0);
        let out = run(
            "program p { handler ingress(pkt) { punt(); } }",
            &mut pkt,
            &mut env,
        );
        assert_eq!(out.verdict, Some(Verdict::ToController));
        let out = run(
            "program p { handler ingress(pkt) { recirculate(); } }",
            &mut pkt,
            &mut env,
        );
        assert_eq!(out.verdict, Some(Verdict::Recirculate));
        let out = run(
            "program p { handler ingress(pkt) { return; drop(); } }",
            &mut pkt,
            &mut env,
        );
        assert_eq!(out.verdict, None, "return yields no verdict");
    }

    #[test]
    fn invoke_records_service_call() {
        let mut env = MemEnv::new();
        let mut pkt = Packet::tcp(1, 1, 2, 3, 4, 0);
        run(
            "program p {
               service require mig(dst: u32, tag: u32);
               handler ingress(pkt) { invoke mig(7, ipv4.src); forward(1); }
             }",
            &mut pkt,
            &mut env,
        );
        assert_eq!(env.invocations, vec![("mig".to_string(), vec![7, 1])]);
    }

    #[test]
    fn division_by_zero_in_program_is_a_trapped_outcome() {
        let p = parse_program(
            "program p { handler ingress(pkt) { let x = 10 / meta.z; forward(1); } }",
        )
        .unwrap();
        let headers = HeaderRegistry::builtins();
        check_program(&p, &headers).unwrap();
        let mut pkt = Packet::tcp(1, 1, 2, 3, 4, 0);
        let mut env = MemEnv::new();
        let out =
            execute_metered(&p, "ingress", &mut pkt, &mut env, &headers, GAS_UNLIMITED).unwrap();
        assert_eq!(out.verdict, None, "a trapped packet carries no verdict");
        assert_eq!(out.trap, Some(Trap::DivisionByZero { op: "/" }));
    }

    #[test]
    fn gas_exhaustion_traps_at_limit_plus_one() {
        let p = parse_program(
            "program p {
               register r : u64[4];
               handler ingress(pkt) {
                 repeat (64) { reg_write(r, 0, reg_read(r, 0) + 1); }
                 forward(1);
               }
             }",
        )
        .unwrap();
        let headers = HeaderRegistry::builtins();
        check_program(&p, &headers).unwrap();

        // Unmetered run establishes the true cost.
        let mut pkt = Packet::tcp(1, 1, 2, 3, 4, 0);
        let mut env = MemEnv::new();
        let full =
            execute_metered(&p, "ingress", &mut pkt, &mut env, &headers, GAS_UNLIMITED).unwrap();
        assert!(full.trap.is_none());
        let cost = full.ops;

        // One op short of the cost must trap at exactly limit + 1.
        let gas = cost - 1;
        let mut pkt = Packet::tcp(1, 1, 2, 3, 4, 0);
        let mut env = MemEnv::new();
        let out = execute_metered(&p, "ingress", &mut pkt, &mut env, &headers, gas).unwrap();
        assert_eq!(out.trap, Some(Trap::GasExhausted { limit: gas }));
        assert_eq!(out.ops, gas + 1, "the trapping op is the first over budget");
        assert_eq!(out.verdict, None);

        // Exactly the cost completes.
        let mut pkt = Packet::tcp(1, 1, 2, 3, 4, 0);
        let mut env = MemEnv::new();
        let out = execute_metered(&p, "ingress", &mut pkt, &mut env, &headers, cost).unwrap();
        assert!(out.trap.is_none());
        assert_eq!(out.verdict, Some(Verdict::Forward(1)));
    }

    #[test]
    fn shrunken_register_traps_out_of_bounds() {
        // The program verifies against size 64; the environment models a
        // register shrunk to 4 by a post-install reconfiguration.
        let p = parse_program(
            "program p {
               register r : u64[64];
               handler ingress(pkt) { reg_write(r, ipv4.src % 64, 1); forward(1); }
             }",
        )
        .unwrap();
        let headers = HeaderRegistry::builtins();
        check_program(&p, &headers).unwrap();
        verify_program(&p, &headers).unwrap();
        let mut env = MemEnv::new();
        env.reg_sizes.insert("r".into(), 4);
        let mut pkt = Packet::tcp(1, 40, 2, 3, 4, 0);
        let out =
            execute_metered(&p, "ingress", &mut pkt, &mut env, &headers, GAS_UNLIMITED).unwrap();
        assert_eq!(
            out.trap,
            Some(Trap::StateOutOfBounds {
                kind: "register",
                name: "r".into(),
                index: 40,
                size: 4,
            })
        );
    }

    #[test]
    fn hash_is_deterministic() {
        assert_eq!(hash_values(&[1, 2, 3]), hash_values(&[1, 2, 3]));
        assert_ne!(hash_values(&[1, 2, 3]), hash_values(&[3, 2, 1]));
    }

    #[test]
    fn map_capacity_enforced() {
        let mut env = MemEnv::new();
        env.map_caps.insert("m".into(), 1);
        env.map_put("m", 1, 1).unwrap();
        assert!(env.map_put("m", 2, 2).is_err());
        env.map_put("m", 1, 9).unwrap(); // update in place is fine
    }
}

mod bytecode_tests {
    use super::interp::{execute_metered, ExecEnv, MemEnv, GAS_UNLIMITED};
    use flexnet_lang::ast::*;
    use flexnet_lang::bytecode::*;
    use flexnet_lang::headers::HeaderRegistry;
    use flexnet_lang::parser::parse_program;
    use flexnet_lang::typecheck::check_program;
    use flexnet_types::{FlexError, Packet, Result, Sym, Verdict};

    const IS_MAP: fn(&StateKind) -> bool = |k| matches!(k, StateKind::Map { .. });
    const IS_REGISTER: fn(&StateKind) -> bool = |k| matches!(k, StateKind::Register { .. });
    const IS_COUNTER: fn(&StateKind) -> bool = |k| matches!(k, StateKind::Counter);
    const IS_METER: fn(&StateKind) -> bool = |k| matches!(k, StateKind::Meter { .. });

    /// Slots by declaration position: table `i` gets slot `i`, each state
    /// kind is numbered independently in declaration order — the layout a
    /// device builds at install time.
    struct Positional<'a>(&'a Program);

    impl<'a> Positional<'a> {
        fn state_slot(&self, name: &str, want: fn(&StateKind) -> bool) -> Option<u16> {
            let mut of_kind = self.0.states.iter().filter(|s| want(&s.kind));
            of_kind.position(|s| s.name == name).map(|i| i as u16)
        }

        /// The inverse of [`Self::state_slot`]: the declared name of a slot.
        fn state_name(&self, slot: u16, want: fn(&StateKind) -> bool) -> &'a str {
            let mut of_kind = self.0.states.iter().filter(|s| want(&s.kind));
            &of_kind
                .nth(slot as usize)
                .expect("a slot this layout gave out")
                .name
        }
    }

    impl SlotResolver for Positional<'_> {
        fn resolve(&self, kind: SymbolKind, name: &str) -> Option<u16> {
            let at = |i: usize| i as u16;
            match kind {
                SymbolKind::Table => self.0.tables.iter().position(|t| t.name == name).map(at),
                SymbolKind::Map => self.state_slot(name, IS_MAP),
                SymbolKind::Register => self.state_slot(name, IS_REGISTER),
                SymbolKind::Counter => self.state_slot(name, IS_COUNTER),
                SymbolKind::Meter => self.state_slot(name, IS_METER),
                SymbolKind::Service => self.0.services.iter().position(|s| s.name == name).map(at),
            }
        }
    }

    fn compile_positional(p: &Program, headers: &HeaderRegistry) -> Result<CompiledProgram> {
        compile(p, headers, &Positional(p))
    }

    /// Adapts a name-keyed [`ExecEnv`] (here [`MemEnv`]) to the slot-indexed
    /// [`SlotEnv`] interface, naming each state slot from the declarations of
    /// the program `prog` was compiled from ([`Positional`] in reverse): the
    /// bridge these tests use to run both engines against the *same* state.
    /// Devices implement [`SlotEnv`] natively and never pay this translation.
    struct NamedSlotEnv<'a> {
        prog: &'a CompiledProgram,
        layout: Positional<'a>,
        inner: &'a mut dyn ExecEnv,
        table_names: Vec<String>,
        last_call: Option<ActionCall>,
    }

    impl<'a> NamedSlotEnv<'a> {
        fn new(
            prog: &'a CompiledProgram,
            program: &'a Program,
            inner: &'a mut dyn ExecEnv,
        ) -> NamedSlotEnv<'a> {
            // slot → table name (table slots come from the resolver, so build
            // the reverse map from the compiled metadata).
            let max = prog
                .tables
                .iter()
                .map(|t| t.slot)
                .max()
                .map_or(0, |m| m + 1);
            let mut table_names = vec![String::new(); max as usize];
            for t in &prog.tables {
                table_names[t.slot as usize] = t.name.clone();
            }
            NamedSlotEnv {
                prog,
                layout: Positional(program),
                inner,
                table_names,
                last_call: None,
            }
        }
    }

    impl SlotEnv for NamedSlotEnv<'_> {
        fn table_lookup(&mut self, table: u16, keys: &[u64]) -> Option<(u16, &[u64])> {
            let name = &self.table_names[table as usize];
            self.last_call = self.inner.table_lookup(name, keys);
            let call = self.last_call.as_ref()?;
            // Unknown action names map to an out-of-range index; the VM turns
            // that into the same class of runtime error the interpreter raises.
            let meta = self.prog.tables.iter().find(|t| t.slot == table);
            let idx = meta
                .and_then(|t| t.actions.iter().position(|a| a.name == call.action))
                .map_or(u16::MAX, |i| i as u16);
            Some((idx, call.args.as_slice()))
        }

        fn map_get(&mut self, map: u16, key: u64) -> Option<u64> {
            self.inner.map_get(self.layout.state_name(map, IS_MAP), key)
        }

        fn map_put(&mut self, map: u16, key: u64, value: u64) -> Result<()> {
            self.inner
                .map_put(self.layout.state_name(map, IS_MAP), key, value)
        }

        fn map_del(&mut self, map: u16, key: u64) {
            self.inner.map_del(self.layout.state_name(map, IS_MAP), key)
        }

        fn reg_read(&mut self, reg: u16, idx: u64) -> Result<u64> {
            self.inner
                .reg_read(self.layout.state_name(reg, IS_REGISTER), idx)
        }

        fn reg_write(&mut self, reg: u16, idx: u64, val: u64) -> Result<()> {
            self.inner
                .reg_write(self.layout.state_name(reg, IS_REGISTER), idx, val)
        }

        fn counter_add(&mut self, counter: u16, pkts: u64, bytes: u64) {
            self.inner
                .counter_add(self.layout.state_name(counter, IS_COUNTER), pkts, bytes)
        }

        fn counter_read(&mut self, counter: u16) -> u64 {
            self.inner
                .counter_read(self.layout.state_name(counter, IS_COUNTER))
        }

        fn meter_check(&mut self, meter: u16, key: u64) -> bool {
            self.inner
                .meter_check(self.layout.state_name(meter, IS_METER), key)
        }

        fn invoke_service(&mut self, service: u16, args: &[u64]) {
            self.inner
                .invoke_service(&self.prog.service_names[service as usize], args)
        }
    }

    /// Runs `handler` of `c` on the one executor against `env` through the
    /// name bridge, on fresh frame storage.
    fn run(
        p: &Program,
        c: &CompiledProgram,
        handler: &str,
        pkt: &mut Packet,
        env: &mut MemEnv,
        gas: u64,
    ) -> Result<ExecOutcome> {
        let entry = c
            .handlers
            .iter()
            .find_map(|(n, pc)| (n == handler).then_some(*pc))
            .ok_or_else(|| FlexError::NotFound(format!("handler `{handler}`")))?;
        let mut bridge = NamedSlotEnv::new(c, p, env);
        execute_compiled(c, entry, pkt, &mut bridge, gas, &mut VmScratch::new())
    }

    fn compiled(src: &str) -> (Program, CompiledProgram, HeaderRegistry) {
        let p = parse_program(src).unwrap();
        let headers = HeaderRegistry::builtins();
        check_program(&p, &headers).unwrap();
        let c = compile_positional(&p, &headers).unwrap();
        (p, c, headers)
    }

    /// Runs both engines from identical initial state and asserts verdict,
    /// op count, and all observable state effects agree.
    fn assert_equivalent(src: &str, pkt: &Packet, setup: impl Fn(&mut MemEnv)) -> ExecOutcome {
        let (p, c, headers) = compiled(src);
        let mut env_i = MemEnv::new();
        setup(&mut env_i);
        let mut env_b = MemEnv::new();
        setup(&mut env_b);
        let mut pkt_i = pkt.clone();
        let mut pkt_b = pkt.clone();
        let out_i = execute_metered(
            &p,
            "ingress",
            &mut pkt_i,
            &mut env_i,
            &headers,
            GAS_UNLIMITED,
        )
        .unwrap();
        let out_b = run(&p, &c, "ingress", &mut pkt_b, &mut env_b, GAS_UNLIMITED).unwrap();
        assert_eq!(out_i, out_b, "verdict/ops diverged on {src}");
        assert_eq!(pkt_i, pkt_b, "packet effects diverged on {src}");
        assert_eq!(env_i.maps, env_b.maps, "map state diverged");
        assert_eq!(env_i.regs, env_b.regs, "register state diverged");
        assert_eq!(env_i.counters, env_b.counters, "counter state diverged");
        assert_eq!(env_i.meters, env_b.meters, "meter state diverged");
        assert_eq!(env_i.invocations, env_b.invocations, "invocations diverged");
        out_b
    }

    #[test]
    fn straight_line_ops_and_verdict_match() {
        let out = assert_equivalent(
            "program p { handler ingress(pkt) { let x = 1 + 2 * 3; forward(x); } }",
            &Packet::tcp(1, 1, 2, 3, 4, 0),
            |_| {},
        );
        assert_eq!(out.verdict, Some(Verdict::Forward(7)));
    }

    #[test]
    fn short_circuit_skips_rhs_in_both_engines() {
        // The rhs meter_check must not fire when the lhs decides; meters
        // are observable state, so divergence would show in the state
        // comparison as well as the op count.
        for src in [
            "program p { meter m rate 1 burst 1; handler ingress(pkt) {
               if (1 == 2 && meter_check(m, 1)) { drop(); } forward(1); } }",
            "program p { meter m rate 1 burst 1; handler ingress(pkt) {
               if (1 == 1 || meter_check(m, 1)) { forward(2); } drop(); } }",
            "program p { meter m rate 1 burst 1; handler ingress(pkt) {
               if (1 == 1 && meter_check(m, 1)) { forward(3); } drop(); } }",
            "program p { meter m rate 1 burst 1; handler ingress(pkt) {
               if (1 == 2 || meter_check(m, 1)) { forward(4); } drop(); } }",
        ] {
            assert_equivalent(src, &Packet::tcp(1, 1, 2, 3, 4, 0), |_| {});
        }
    }

    #[test]
    fn table_hit_default_and_miss_match() {
        let src = "program p {
            table acl {
              key { ipv4.src : exact; }
              action set_port(port: u16) { forward(port); }
              action deny() { drop(); }
              default deny();
              size 8;
            }
            handler ingress(pkt) { apply acl; forward(1); }
          }";
        // Hit.
        let out = assert_equivalent(src, &Packet::tcp(1, 99, 2, 3, 4, 0), |env| {
            env.install_entry(
                "acl",
                vec![99],
                ActionCall {
                    action: "set_port".into(),
                    args: vec![42],
                },
            );
        });
        assert_eq!(out.verdict, Some(Verdict::Forward(42)));
        // Miss → default.
        let out = assert_equivalent(src, &Packet::tcp(1, 7, 2, 3, 4, 0), |_| {});
        assert_eq!(out.verdict, Some(Verdict::Drop));
        // Miss, no default → fall through.
        let out = assert_equivalent(
            "program p {
               table acl { key { ipv4.src : exact; } size 8; }
               handler ingress(pkt) { apply acl; forward(9); } }",
            &Packet::tcp(1, 7, 2, 3, 4, 0),
            |_| {},
        );
        assert_eq!(out.verdict, Some(Verdict::Forward(9)));
    }

    #[test]
    fn repeat_headers_maps_registers_match() {
        assert_equivalent(
            "program p {
               map m : map<u32, u32>[64];
               register r : u64[8];
               counter c;
               handler ingress(pkt) {
                 repeat (5) {
                   reg_write(r, 1, reg_read(r, 1) + 3);
                   map_put(m, ipv4.src, map_get(m, ipv4.src) + 1);
                   count(c);
                 }
                 add_header(vlan);
                 vlan.vid = 7;
                 meta.mark = hash(ipv4.src, pktlen());
                 remove_header(vlan);
                 if (map_has(m, ipv4.src)) { forward(reg_read(r, 1)); }
                 drop();
               }
             }",
            &Packet::tcp(1, 10, 2, 3, 4, 0),
            |_| {},
        );
    }

    #[test]
    fn return_and_invoke_match() {
        assert_equivalent(
            "program p {
               service require mig(dst: u32, tag: u32);
               handler ingress(pkt) {
                 invoke mig(7, ipv4.src);
                 if (ipv4.src == 1) { return; }
                 forward(1);
               }
             }",
            &Packet::tcp(1, 1, 2, 3, 4, 0),
            |_| {},
        );
    }

    #[test]
    fn arity_mismatch_trap_is_identical() {
        let src = "program p {
            table t {
              key { ipv4.src : exact; }
              action go(port: u16) { forward(port); }
              size 8;
            }
            handler ingress(pkt) { apply t; forward(1); }
          }";
        let (p, c, headers) = compiled(src);
        let mut setup = MemEnv::new();
        setup.install_entry(
            "t",
            vec![1],
            ActionCall {
                action: "go".into(),
                args: vec![1, 2], // wrong arity
            },
        );
        let mut env_i = MemEnv::new();
        env_i.tables = setup.tables.clone();
        let mut pkt = Packet::tcp(1, 1, 2, 3, 4, 0);
        let out_i = execute_metered(
            &p,
            "ingress",
            &mut pkt.clone(),
            &mut env_i,
            &headers,
            GAS_UNLIMITED,
        )
        .unwrap();
        let mut env_b = MemEnv::new();
        env_b.tables = setup.tables.clone();
        let out_b = run(&p, &c, "ingress", &mut pkt, &mut env_b, GAS_UNLIMITED).unwrap();
        assert_eq!(out_i, out_b, "trap identity and gas count must agree");
        let trap = out_b.trap.expect("a bad entry traps, fail closed");
        assert_eq!(
            trap,
            flexnet_types::Trap::ArityMismatch {
                table: "t".into(),
                action: "go".into(),
            }
        );
        assert_eq!(trap.to_string(), "table `t` action `go` arity mismatch");
        assert_eq!(out_b.verdict, None, "a trapped packet carries no verdict");
    }

    #[test]
    fn gas_exhaustion_identical_across_engines_at_every_budget() {
        // Sweep every budget from 0 to the true cost: both engines must
        // trap (or complete) at the identical ops count with the identical
        // trap, packet effects, and state — the strongest form of the
        // metering-parity invariant.
        let src = "program p {
            map m : map<u32, u32>[64];
            register r : u64[8];
            counter c;
            table t {
              key { ipv4.src : exact; }
              action tag(v: u16) { meta.mark = v; }
              default tag(3);
              size 4;
            }
            handler ingress(pkt) {
              repeat (3) {
                reg_write(r, 1, reg_read(r, 1) + 1);
                map_put(m, ipv4.src, map_get(m, ipv4.src) + 1);
                count(c);
              }
              apply t;
              if (map_has(m, ipv4.src) && reg_read(r, 1) > 1) { forward(2); }
              drop();
            }
          }";
        let (p, c, headers) = compiled(src);
        let base = Packet::tcp(1, 10, 2, 3, 4, 0);
        let full = {
            let mut env = MemEnv::new();
            let mut pkt = base.clone();
            execute_metered(&p, "ingress", &mut pkt, &mut env, &headers, GAS_UNLIMITED).unwrap()
        };
        assert!(full.trap.is_none());
        for gas in 0..=full.ops {
            let mut env_i = MemEnv::new();
            let mut env_b = MemEnv::new();
            let mut pkt_i = base.clone();
            let mut pkt_b = base.clone();
            let out_i =
                execute_metered(&p, "ingress", &mut pkt_i, &mut env_i, &headers, gas).unwrap();
            let out_b = run(&p, &c, "ingress", &mut pkt_b, &mut env_b, gas).unwrap();
            assert_eq!(out_i, out_b, "divergence at gas={gas}");
            assert_eq!(pkt_i, pkt_b, "packet divergence at gas={gas}");
            assert_eq!(env_i.maps, env_b.maps, "map divergence at gas={gas}");
            assert_eq!(env_i.regs, env_b.regs, "register divergence at gas={gas}");
            assert_eq!(
                env_i.counters, env_b.counters,
                "counter divergence at gas={gas}"
            );
            assert_eq!(env_i.invocations, env_b.invocations);
            if gas < full.ops {
                assert_eq!(
                    out_i.trap,
                    Some(flexnet_types::Trap::GasExhausted { limit: gas }),
                    "under-budget run must trap at gas={gas}"
                );
                assert!(
                    out_i.ops > gas && out_i.ops <= gas + 4,
                    "trapping op is the first charge over budget (ops={}, gas={gas}; \
                     apply charges 4 at once)",
                    out_i.ops
                );
            } else {
                assert!(out_i.trap.is_none());
            }
        }
    }

    #[test]
    fn division_by_zero_trap_is_identical() {
        let (p, c, headers) =
            compiled("program p { handler ingress(pkt) { let x = 7 % meta.z; forward(x); } }");
        let mut env_i = MemEnv::new();
        let mut env_b = MemEnv::new();
        let mut pkt_i = Packet::tcp(1, 1, 2, 3, 4, 0);
        let mut pkt_b = pkt_i.clone();
        let out_i = execute_metered(
            &p,
            "ingress",
            &mut pkt_i,
            &mut env_i,
            &headers,
            GAS_UNLIMITED,
        )
        .unwrap();
        let out_b = run(&p, &c, "ingress", &mut pkt_b, &mut env_b, GAS_UNLIMITED).unwrap();
        assert_eq!(out_i, out_b);
        assert_eq!(
            out_b.trap,
            Some(flexnet_types::Trap::DivisionByZero { op: "%" })
        );
    }

    #[test]
    fn corrupt_image_traps_instead_of_panicking() {
        // A hand-corrupted image (jump past the end) must fail closed with
        // a CorruptImage trap, never a panic or a hang.
        let (p, mut c, _) = compiled("program p { handler ingress(pkt) { forward(1); } }");
        c.insns.clear();
        c.insns.push(Insn::Jump(1000));
        let mut env = MemEnv::new();
        let mut pkt = Packet::tcp(1, 1, 2, 3, 4, 0);
        let out = run(&p, &c, "ingress", &mut pkt, &mut env, GAS_UNLIMITED).unwrap();
        assert_eq!(
            out.trap,
            Some(flexnet_types::Trap::CorruptImage {
                reason: "bytecode pc out of range",
            })
        );

        // A store, a hash or an invocation with too little on the stack
        // underflows.
        for insn in [Insn::StoreLocal(0), Insn::Hash(3), Insn::Invoke(0, 2)] {
            let (p, mut c, _) = compiled("program p { handler ingress(pkt) { forward(1); } }");
            c.insns.clear();
            c.insns.push(insn);
            c.n_locals = 1;
            c.service_names = vec!["s".into()];
            let mut env = MemEnv::new();
            let mut pkt = Packet::tcp(1, 1, 2, 3, 4, 0);
            let out = run(&p, &c, "ingress", &mut pkt, &mut env, GAS_UNLIMITED).unwrap();
            assert_eq!(
                out.trap,
                Some(flexnet_types::Trap::CorruptImage {
                    reason: "bytecode stack underflow",
                }),
                "{insn:?}"
            );
        }
    }

    /// Every `hash()` the VM resumes from its memo equals a fresh
    /// [`flexnet_types::hash::hash_values`], whatever ran through the same
    /// scratch before it: other packets, shared prefixes, repeats, every
    /// arity from 0 (a hand-built `Hash(0)`: the checker rejects `hash()`)
    /// to 8, values that differ only in their top byte, and another program
    /// in between.
    #[test]
    fn the_hash_memo_is_exact_across_packets_and_programs() {
        use flexnet_types::hash::hash_values;
        // One program per arity hashing its locals `x0..x{n-1}`, and another
        // image (with a counter) hashing a three-wide prefix of them.
        let widest = 8usize;
        let lets: String = (0..widest)
            .map(|i| format!("let x{i} = meta.a{i};"))
            .collect();
        let args = |n: usize| {
            (0..n)
                .map(|i| format!("x{i}"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let hash_n: Vec<(Program, CompiledProgram)> = (0..=widest)
            .map(|n| {
                let src = format!(
                    "program p{n} {{ handler ingress(pkt) {{ {lets} meta.h = hash({}); }} }}",
                    args(n.max(1))
                );
                let (p, mut c, _) = compiled(&src);
                if n == 0 {
                    // `x0` stays pushed beneath the hash, unread.
                    let at = c.insns.iter().position(|i| *i == Insn::Hash(1)).unwrap();
                    c.insns[at] = Insn::Hash(0);
                }
                (p, c)
            })
            .collect();
        let (q, other, _) = compiled(&format!(
            "program q {{ counter c; handler ingress(pkt) {{ {lets} count(c); \
             meta.h = hash(x0, x1, x2); }} }}"
        ));
        let mut x: u64 = 0x1234_5678_9abc_def1;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut scratch = VmScratch::new();
        let mut last = vec![0u64; widest];
        for round in 0..4_000 {
            // Mostly small perturbations of the previous vector, so
            // prefixes are shared often; sometimes identical, sometimes
            // only the top byte differs, sometimes all fresh.
            let mut vals = last.clone();
            match rng() % 5 {
                0 => {}
                1 => {
                    let i = (rng() % widest as u64) as usize;
                    vals[i] ^= 0xff << 56;
                }
                2 => vals.iter_mut().for_each(|v| *v = rng()),
                _ => {
                    let i = (rng() % widest as u64) as usize;
                    vals[i] = rng() % 4;
                }
            }
            let ((program, prog), n) = if rng() % 7 == 0 {
                ((&q, &other), 3)
            } else {
                let n = (rng() % (widest as u64 + 1)) as usize;
                let (p, c) = &hash_n[n];
                ((p, c), n)
            };
            let mut pkt = Packet::tcp(round, 1, 2, 3, 4, 0);
            for (i, v) in vals.iter().enumerate() {
                pkt.metadata.insert(Sym::intern(&format!("a{i}")), *v);
            }
            let mut env = MemEnv::new();
            let mut bridge = NamedSlotEnv::new(prog, program, &mut env);
            let entry = prog.ingress.unwrap();
            execute_compiled(
                prog,
                entry,
                &mut pkt,
                &mut bridge,
                GAS_UNLIMITED,
                &mut scratch,
            )
            .unwrap();
            assert_eq!(
                pkt.metadata["h"],
                hash_values(&vals[..n]),
                "round {round}: hash of {:?}",
                &vals[..n]
            );
            last = vals;
        }
    }

    #[test]
    fn unresolved_symbols_surface_per_kind_at_compile_time() {
        // A resolver that knows nothing forces every kind's error path.
        struct Nothing;
        impl SlotResolver for Nothing {
            fn resolve(&self, _: SymbolKind, _: &str) -> Option<u16> {
                None
            }
        }
        let headers = HeaderRegistry::builtins();
        let cases = [
            (
                "program p { map m : map<u32, u32>[4];
                   handler ingress(pkt) { map_put(m, 1, 2); } }",
                "map",
                "m",
            ),
            (
                "program p { register r : u64[4];
                   handler ingress(pkt) { reg_write(r, 0, 1); } }",
                "register",
                "r",
            ),
            (
                "program p { counter c; handler ingress(pkt) { count(c); } }",
                "counter",
                "c",
            ),
            (
                "program p { meter m rate 1 burst 1;
                   handler ingress(pkt) { if (meter_check(m, 1)) { drop(); } } }",
                "meter",
                "m",
            ),
            (
                "program p { service require s(x: u32);
                   handler ingress(pkt) { invoke s(1); } }",
                "service",
                "s",
            ),
            (
                "program p { table t { key { ipv4.src : exact; } size 4; }
                   handler ingress(pkt) { apply t; } }",
                "table",
                "t",
            ),
        ];
        for (src, kind, name) in cases {
            let p = parse_program(src).unwrap();
            check_program(&p, &headers).unwrap();
            let err = compile(&p, &headers, &Nothing).unwrap_err();
            assert_eq!(
                err,
                FlexError::UnresolvedSymbol {
                    kind: kind.into(),
                    name: name.into(),
                },
                "wrong error for {src}"
            );
        }
    }

    #[test]
    fn unresolved_local_and_default_action_surface() {
        // Hand-built AST (the type checker would reject both), proving the
        // compiler degrades into typed errors rather than panics.
        let mut p = Program::empty("p", ProgramKind::Any);
        p.handlers.push(
            Handler {
                name: "ingress".into(),
                body: vec![Stmt::Forward(Expr::Local("nope".into()))],
            }
            .into(),
        );
        let headers = HeaderRegistry::builtins();
        let err = compile_positional(&p, &headers).unwrap_err();
        assert_eq!(
            err,
            FlexError::UnresolvedSymbol {
                kind: "local".into(),
                name: "nope".into(),
            }
        );

        let mut p = Program::empty("p", ProgramKind::Any);
        p.tables.push(
            TableDecl {
                name: "t".into(),
                keys: vec![],
                actions: vec![],
                default_action: Some(ActionCall {
                    action: "ghost".into(),
                    args: vec![],
                }),
                size: 4,
            }
            .into(),
        );
        p.handlers.push(
            Handler {
                name: "ingress".into(),
                body: vec![Stmt::Apply("t".into())],
            }
            .into(),
        );
        let err = compile_positional(&p, &headers).unwrap_err();
        assert_eq!(
            err,
            FlexError::UnresolvedSymbol {
                kind: "action".into(),
                name: "ghost".into(),
            }
        );
    }

    #[test]
    fn unknown_handler_matches_interpreter_error() {
        let (p, c, _) = compiled("program p { handler ingress(pkt) { forward(1); } }");
        let mut env = MemEnv::new();
        let mut pkt = Packet::tcp(1, 1, 2, 3, 4, 0);
        let err = run(&p, &c, "egress", &mut pkt, &mut env, GAS_UNLIMITED).unwrap_err();
        assert_eq!(err, FlexError::NotFound("handler `egress`".into()));
    }

    #[test]
    fn action_locals_do_not_leak_into_the_handler_frame() {
        // The action writes a name the handler also declares; reads after
        // the apply must see the handler's value in both engines.
        let out = assert_equivalent(
            "program p {
               table t {
                 key { ipv4.src : exact; }
                 action tag(v: u16) { let x = v + 100; meta.inner = x; }
                 default tag(1);
                 size 4;
               }
               handler ingress(pkt) {
                 let x = 5;
                 apply t;
                 forward(x);
               }
             }",
            &Packet::tcp(1, 1, 2, 3, 4, 0),
            |_| {},
        );
        assert_eq!(out.verdict, Some(Verdict::Forward(5)));
    }
}
