//! App state migration: control-plane copy vs. in-data-plane migration.
//!
//! Paper §3.4: "Consider migrating a stateful network app (e.g., one that
//! maintains a count-min sketch). As the sketch state is updated for each
//! packet, copying state via control plane software is impossible. Recent
//! work has developed tools to perform state migration entirely in data
//! plane \[Swing State, SIGCOMM SPIN'20\]."
//!
//! The two strategies differ in *when* the state is captured:
//!
//! - [`MigrationStrategy::ControlPlane`] snapshots at `begin`; the copy then
//!   crawls through the controller at software speeds, and every update the
//!   source applies during that window is absent from the destination — the
//!   measured `lost_updates` of experiment E8.
//! - [`MigrationStrategy::DataPlane`] streams at data-plane speeds and
//!   captures atomically at commit, so the destination sees every update.

use flexnet_dataplane::{Device, LogicalState};
use flexnet_types::{FlexError, Result, SimDuration, SimTime};

/// Per-item cost of a control-plane (software API) state read.
pub const CONTROL_PLANE_PER_ITEM: SimDuration = SimDuration::from_micros(50);
/// Base round-trip of a control-plane transfer.
pub const CONTROL_PLANE_RTT: SimDuration = SimDuration::from_millis(2);

/// How state is moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationStrategy {
    /// Software copy through the controller.
    ControlPlane,
    /// In-data-plane migration (Swing-State-style).
    DataPlane,
}

/// A migration in progress.
#[derive(Debug)]
pub struct Migration {
    strategy: MigrationStrategy,
    started: SimTime,
    completes: SimTime,
    /// Control-plane: the (stale-by-completion) snapshot taken at begin.
    begin_snapshot: Option<LogicalState>,
}

/// The outcome of a completed migration.
#[derive(Debug, Clone)]
pub struct MigrationReport {
    /// Strategy used.
    pub strategy: MigrationStrategy,
    /// When it started.
    pub started: SimTime,
    /// When the destination became authoritative.
    pub completed: SimTime,
    /// State items transferred.
    pub items: u64,
    /// The window during which source updates were not captured
    /// (zero for data-plane migration).
    pub blackout: SimDuration,
}

impl Migration {
    /// Begins migrating `src`'s program state.
    pub fn begin(src: &Device, strategy: MigrationStrategy, now: SimTime) -> Result<Migration> {
        let snapshot = src
            .snapshot_state()
            .ok_or_else(|| FlexError::NotFound("no program installed on source".into()))?;
        let items = snapshot.item_count();
        let (completes, begin_snapshot) = match strategy {
            MigrationStrategy::ControlPlane => (
                now + CONTROL_PLANE_RTT + CONTROL_PLANE_PER_ITEM.saturating_mul(items.max(1)),
                Some(snapshot),
            ),
            MigrationStrategy::DataPlane => (
                now + src
                    .cost_model()
                    .migrate_per_item
                    .saturating_mul(items.max(1)),
                None,
            ),
        };
        Ok(Migration {
            strategy,
            started: now,
            completes,
            begin_snapshot,
        })
    }

    /// When the migration completes.
    pub fn completes_at(&self) -> SimTime {
        self.completes
    }

    /// Finishes the migration, installing state into `dst`.
    ///
    /// For control-plane migration the snapshot captured at `begin` is
    /// restored (updates since then are lost); for data-plane migration the
    /// source is captured atomically now.
    pub fn finish(self, src: &Device, dst: &mut Device, now: SimTime) -> Result<MigrationReport> {
        if now < self.completes {
            return Err(FlexError::Reconfig(format!(
                "migration completes at {}, now is {}",
                self.completes, now
            )));
        }
        let (snapshot, blackout) = match self.strategy {
            MigrationStrategy::ControlPlane => (
                self.begin_snapshot
                    .ok_or_else(|| FlexError::Reconfig("begin snapshot missing".into()))?,
                self.completes.saturating_since(self.started),
            ),
            MigrationStrategy::DataPlane => (
                src.snapshot_state()
                    .ok_or_else(|| FlexError::NotFound("source program vanished".into()))?,
                SimDuration::ZERO,
            ),
        };
        let items = snapshot.item_count();
        dst.restore_state(&snapshot)?;
        Ok(MigrationReport {
            strategy: self.strategy,
            started: self.started,
            completed: now,
            items,
            blackout,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexnet_dataplane::{Architecture, StateEncoding};
    use flexnet_lang::diff::ProgramBundle;
    use flexnet_lang::parser::parse_source;
    use flexnet_types::NodeId;

    fn bundle() -> ProgramBundle {
        let file = parse_source(
            "program sketch kind any {
               map counts : map<u64, u64>[1024];
               handler ingress(pkt) {
                 map_put(counts, hash(ipv4.src), map_get(counts, hash(ipv4.src)) + 1);
                 forward(0);
               }
             }",
        )
        .unwrap();
        ProgramBundle {
            headers: file.headers,
            program: file.programs.into_iter().next().unwrap(),
        }
    }

    fn dev(id: u32) -> Device {
        let mut d = Device::new(
            NodeId(id),
            Architecture::drmt_default(),
            StateEncoding::StatefulTable,
        );
        d.install(bundle()).unwrap();
        d
    }

    /// Puts `key → value` into the sketch's `counts` map.
    fn put(d: &mut Device, key: u64, value: u64) {
        let state = &mut d.program_mut().unwrap().state;
        state.map_put_at(state.map_slot("counts").unwrap(), key, value);
    }

    /// What the sketch's `counts` map holds for `key`.
    fn get(d: &Device, key: u64) -> Option<u64> {
        d.snapshot_state().unwrap().maps["counts"]
            .get(&key)
            .copied()
    }

    #[test]
    fn data_plane_migration_is_fast_and_lossless() {
        let mut src = dev(1);
        let mut dst = dev(2);
        for k in 0..100u64 {
            put(&mut src, k, k);
        }
        let t0 = SimTime::from_secs(1);
        let m = Migration::begin(&src, MigrationStrategy::DataPlane, t0).unwrap();
        // Data-plane migration of 100 items completes in ~10us.
        assert!(m.completes_at().saturating_since(t0) < SimDuration::from_millis(1));

        // An update lands while the transfer is in flight…
        put(&mut src, 999, 42);

        let done = m.completes_at();
        let report = m.finish(&src, &mut dst, done).unwrap();
        assert_eq!(report.blackout, SimDuration::ZERO);
        // …and it is present at the destination.
        assert_eq!(get(&dst, 999), Some(42));
    }

    #[test]
    fn control_plane_migration_loses_in_flight_updates() {
        let mut src = dev(1);
        let mut dst = dev(2);
        for k in 0..100u64 {
            put(&mut src, k, k);
        }
        let t0 = SimTime::from_secs(1);
        let m = Migration::begin(&src, MigrationStrategy::ControlPlane, t0).unwrap();
        assert!(
            m.completes_at().saturating_since(t0) >= SimDuration::from_millis(2),
            "software copy is slow"
        );

        // Updates during the copy window…
        put(&mut src, 999, 42);
        put(&mut src, 0, 7777);

        let done = m.completes_at();
        let report = m.finish(&src, &mut dst, done).unwrap();
        assert!(report.blackout > SimDuration::ZERO);
        // …are lost at the destination.
        assert_eq!(get(&dst, 999), None);
        assert_eq!(get(&dst, 0), Some(0), "stale value from the begin snapshot");
    }

    #[test]
    fn finish_before_completion_rejected() {
        let src = dev(1);
        let mut dst = dev(2);
        let t0 = SimTime::from_secs(1);
        let m = Migration::begin(&src, MigrationStrategy::ControlPlane, t0).unwrap();
        assert!(m.finish(&src, &mut dst, t0).is_err());
    }

    #[test]
    fn begin_requires_program() {
        let empty = Device::new(
            NodeId(9),
            Architecture::drmt_default(),
            StateEncoding::StatefulTable,
        );
        assert!(Migration::begin(&empty, MigrationStrategy::DataPlane, SimTime::ZERO).is_err());
    }

    #[test]
    fn duration_scales_with_items() {
        let mut src = dev(1);
        let m_small =
            Migration::begin(&src, MigrationStrategy::ControlPlane, SimTime::ZERO).unwrap();
        for k in 0..1000u64 {
            put(&mut src, k, 1);
        }
        let m_big = Migration::begin(&src, MigrationStrategy::ControlPlane, SimTime::ZERO).unwrap();
        assert!(m_big.completes_at() > m_small.completes_at());
    }
}
