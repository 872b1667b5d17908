//! The cost of a configuration digest after one entry change
//! (`DESIGN.md` §9): the device hashes again only the table that changed
//! and folds the root from the other tables' kept digests, so the refold
//! allocates nothing and does not grow with what the other tables hold.
//!
//! This file holds exactly one test (see `common/counting_alloc.rs`).

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::count;
use flexnet_dataplane::{
    config_digest_of, table_digest, Architecture, Device, StateEncoding, TableEntry,
};
use flexnet_lang::ast::ActionCall;
use flexnet_lang::diff::ProgramBundle;
use flexnet_lang::parser::parse_source;
use flexnet_types::NodeId;
use std::time::{Duration, Instant};

/// A small `acl` beside a `big` table.
fn program() -> ProgramBundle {
    let file = parse_source(
        "program app kind any {
           table acl {
             key { ipv4.src : exact; }
             action deny() { drop(); }
             size 4096;
           }
           table big {
             key { ipv4.dst : exact; }
             action deny() { drop(); }
             size 65536;
           }
           handler ingress(pkt) { apply acl; apply big; forward(1); }
         }",
    )
    .expect("parses");
    ProgramBundle {
        headers: file.headers,
        program: file.programs.into_iter().next().expect("one program"),
    }
}

fn deny(key: u64) -> TableEntry {
    let action = ActionCall {
        action: "deny".into(),
        args: vec![],
    };
    TableEntry::exact(&[key], action)
}

/// The fastest of `runs` timings of `f`.
fn fastest(runs: usize, mut f: impl FnMut() -> Duration) -> Duration {
    (0..runs).map(|_| f()).min().expect("at least one run")
}

#[test]
fn a_refold_after_one_entry_change_allocates_nothing_and_skips_the_other_tables() {
    const BIG: u64 = 16_384;
    let arch = Architecture::host_default();
    let mut dev = Device::new(NodeId(1), arch, StateEncoding::StatefulTable);
    dev.install(program()).expect("installs");
    for key in 0..BIG {
        dev.add_entry("big", deny(key)).expect("fits");
    }
    dev.config_digest();

    let mut key = 0;
    let mut refold = || {
        key += 1;
        dev.add_entry("acl", deny(key)).expect("fits");
        let (allocs, _) = count(|| dev.config_digest());
        assert_eq!(
            allocs, 0,
            "a refold after one entry change allocates nothing"
        );
        let start = Instant::now();
        dev.add_entry("acl", deny(key + 100_000)).expect("fits");
        let digest = dev.config_digest();
        let took = start.elapsed();
        dev.remove_entry("acl", &deny(key + 100_000).matches)
            .expect("table");
        std::hint::black_box(digest);
        took
    };
    let one_change = fastest(16, &mut refold);
    let big = dev.table("big").expect("declared");
    let whole_table = fastest(4, || {
        let start = Instant::now();
        std::hint::black_box(table_digest("big", big.entries()));
        start.elapsed()
    });
    println!("refold after one acl change: {one_change:?}; hashing big: {whole_table:?}");
    assert!(
        one_change * 8 < whole_table,
        "a refold after one acl change ({one_change:?}) must not hash big again ({whole_table:?})"
    );

    let p = dev.program().expect("installed");
    let entries: Vec<(String, TableEntry)> = p
        .tables()
        .iter()
        .flat_map(|t| t.entries().iter().map(|e| (t.decl.name.clone(), e.clone())))
        .collect();
    assert_eq!(dev.config_digest(), config_digest_of(p.bundle(), &entries));
}
