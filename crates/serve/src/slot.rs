//! The model slot: one served model's hot-swap state and health
//! supervisor.
//!
//! Every front end of the serve stack serves its model through a
//! [`ModelSlot`]: the [`Server`](crate::Server) owns one, `ffdl-sched`
//! owns one per tenant, and `ffdl-stream`'s server owns one. The slot
//! holds the current model as an `Arc<Network>` next to a monotonic
//! generation counter, a bounded history of retained generations for
//! rollback, and the optional registry binding that makes rollbacks
//! durable. It is shared plumbing for the workspace's serving crates,
//! not a stable API.
//!
//! # The pair invariant
//!
//! An install exchanges the `Arc` **and** bumps the generation while
//! holding the slot lock, and [`ModelSlot::current`] reads both under
//! that same lock, so the pair it returns is always consistent: the
//! network is exactly the one installed as that generation. Workers poll
//! [`ModelSlot::generation`] between batches (one `Acquire` load) and,
//! when it moved, adopt through `current()` and tag their responses with
//! the generation `current()` returned — never with a separate counter
//! read, which a swap landing in between could have moved past the
//! network being served.
//!
//! # Health supervision
//!
//! [`ModelSlot::report_unhealthy`] counts numerically unhealthy request
//! failures against a generation. At the threshold it quarantines that
//! generation and rolls back to the newest healthy one, preferring the
//! registry: [`ModelStore::rollback`] republishes the healthy
//! generation's bytes as a new checksummed registry generation, so
//! recovery is durable and bit-identical to the original publish. When
//! the slot has no store binding, or the registry path fails (e.g. the
//! store itself is corrupted), the retained `Arc` is reinstalled instead.

use crate::error::ServeError;
use ffdl_nn::{clone_network, LayerRegistry, Network};
use ffdl_registry::ModelStore;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Model generations retained for rollback (the active one included).
const HISTORY_DEPTH: usize = 8;

/// One retained model generation: enough to attribute failures and to
/// roll back without the registry.
struct GenRecord {
    /// Slot generation number (what responses and failures carry).
    server_gen: u64,
    /// The registry generation this model was loaded from, if any.
    registry_gen: Option<u64>,
    /// The originally-published registry generation these weights
    /// descend from. A registry rollback republishes old weights under a
    /// *new* registry generation; lineage maps such a record back to the
    /// publish (e.g. the brownout ladder rung) it carries.
    lineage: Option<u64>,
    /// The same `Arc` the slot held while this generation was active, so
    /// retention costs one pointer and an in-memory rollback is an `Arc`
    /// clone.
    network: Arc<Network>,
    /// Declared numerically unhealthy; never a rollback target.
    quarantined: bool,
}

/// Supervision state behind one mutex, off the hot path: installs
/// serialize on it, and workers take it only when a batch fails its
/// finiteness check.
struct Supervision {
    /// Retained generations, ascending; the last entry is active.
    history: Vec<GenRecord>,
    /// The store and model name durable rollbacks republish through.
    binding: Option<(ModelStore, String)>,
    /// Generation the current error streak counts against.
    error_gen: u64,
    /// Unhealthy request failures recorded against `error_gen`.
    error_count: u32,
    /// Generations quarantined so far.
    quarantines: u64,
    /// Automatic rollbacks performed so far.
    auto_rollbacks: u64,
}

/// What one [`ModelSlot::report_unhealthy`] call triggered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthAction {
    /// This report quarantined the generation.
    pub quarantined: bool,
    /// This report rolled the slot back to an earlier healthy
    /// generation (always implies `quarantined`).
    pub rolled_back: bool,
}

/// One served model: the current `(generation, network)` pair, its
/// rollback history and its health supervisor. See the module docs.
pub struct ModelSlot {
    /// The current model. Installs exchange the `Arc` and bump
    /// `generation` under this lock; readers `Arc::clone` it (two pointer
    /// bumps) and structurally clone outside.
    network: Mutex<Arc<Network>>,
    /// Monotonic model generation, starting at 1. Written only under the
    /// `network` lock; read lock-free by workers between batches.
    generation: AtomicU64,
    /// Rollback history and unhealthy-error accounting.
    supervision: Mutex<Supervision>,
}

impl ModelSlot {
    /// A slot serving `network` as generation 1. `registry_gen` is the
    /// registry generation it was loaded from (it also seeds the
    /// record's lineage); `binding` is the store and model name that
    /// durable rollbacks republish through.
    pub fn new(
        network: Arc<Network>,
        registry_gen: Option<u64>,
        binding: Option<(ModelStore, String)>,
    ) -> Self {
        Self {
            network: Mutex::new(Arc::clone(&network)),
            generation: AtomicU64::new(1),
            supervision: Mutex::new(Supervision {
                history: vec![GenRecord {
                    server_gen: 1,
                    registry_gen,
                    lineage: registry_gen,
                    network,
                    quarantined: false,
                }],
                binding,
                error_gen: 1,
                error_count: 0,
                quarantines: 0,
                auto_rollbacks: 0,
            }),
        }
    }

    fn supervision(&self) -> MutexGuard<'_, Supervision> {
        self.supervision.lock().expect("supervision lock poisoned")
    }

    /// The current generation: one `Acquire` load, the workers' fast
    /// path between batches. To *serve* a generation, read it together
    /// with its network through [`current`](Self::current).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// The current `(generation, network)` pair, read under the slot
    /// lock — the network is exactly the one installed as that
    /// generation.
    pub fn current(&self) -> (u64, Arc<Network>) {
        let network = self.network.lock().expect("model slot poisoned");
        (
            self.generation.load(Ordering::Acquire),
            Arc::clone(&network),
        )
    }

    /// A structural clone of the current network (parameter buffers
    /// shared, scratch fresh) with the generation it was installed as —
    /// what a worker builds its engine from.
    ///
    /// # Errors
    ///
    /// [`ServeError::Clone`] when a layer cannot be rebuilt through
    /// `layers`.
    pub fn clone_current(&self, layers: &LayerRegistry) -> Result<(u64, Network), ServeError> {
        let (generation, network) = self.current();
        Ok((generation, clone_network(&network, layers)?))
    }

    /// Installs `network` as the next generation and pushes its history
    /// record. The caller holds the supervision lock, so swaps and
    /// rollbacks serialize; the counter is bumped under the slot lock
    /// (`Release`, pairing with the workers' `Acquire` loads), which is
    /// what keeps [`current`](Self::current)'s pair consistent.
    fn install(
        &self,
        sup: &mut Supervision,
        network: Arc<Network>,
        registry_gen: Option<u64>,
        lineage: Option<u64>,
    ) -> u64 {
        let generation = {
            let mut slot = self.network.lock().expect("model slot poisoned");
            *slot = Arc::clone(&network);
            self.generation.fetch_add(1, Ordering::Release) + 1
        };
        sup.history.push(GenRecord {
            server_gen: generation,
            registry_gen,
            lineage,
            network,
            quarantined: false,
        });
        if sup.history.len() > HISTORY_DEPTH {
            sup.history.remove(0);
        }
        generation
    }

    /// Installs an in-memory `network` as the next generation (an O(1)
    /// `Arc` exchange plus a counter bump) and returns that generation.
    pub fn swap(&self, network: Arc<Network>) -> u64 {
        let mut sup = self.supervision();
        self.install(&mut sup, network, None, None)
    }

    /// Loads `registry_generation` of `name` from `store` (`None` =
    /// active, checksum-verified) and installs it as the next
    /// generation, binding the slot to that store for durable rollbacks.
    /// `lineage` tags the record with the published generation the
    /// weights descend from (default: the loaded generation itself).
    /// Returns the new slot generation.
    ///
    /// # Errors
    ///
    /// [`ServeError::Registry`] for unknown names/generations or a
    /// corrupt payload; the slot is left untouched.
    pub fn swap_from_store(
        &self,
        store: &ModelStore,
        name: &str,
        registry_generation: Option<u64>,
        lineage: Option<u64>,
        layers: &LayerRegistry,
    ) -> Result<u64, ServeError> {
        let (network, version) = store.load(name, registry_generation, layers)?;
        let mut sup = self.supervision();
        sup.binding = Some((store.clone(), name.to_string()));
        let lineage = lineage.or(Some(version.generation));
        Ok(self.install(
            &mut sup,
            Arc::new(network),
            Some(version.generation),
            lineage,
        ))
    }

    /// The store and model name the slot is bound to, if any.
    pub fn binding(&self) -> Option<(ModelStore, String)> {
        self.supervision().binding.clone()
    }

    /// Records `failed` numerically unhealthy request failures against
    /// `generation` and, once `threshold` of them accumulate while that
    /// generation is still current, quarantines it and rolls back to the
    /// newest healthy generation (registry path first, retained `Arc` as
    /// the fallback; `layers` resolves the reloaded network).
    ///
    /// A `threshold` of 0 disables the supervisor. A generation change
    /// resets the streak; failures against a generation that is no
    /// longer current are ignored (in-flight batches finish on the old
    /// model and must not punish its successor); a generation already
    /// quarantined is not tripped twice; and with no healthy generation
    /// left, the generation is quarantined without a rollback — the
    /// caller keeps failing typed rather than going dark.
    pub fn report_unhealthy(
        &self,
        generation: u64,
        failed: u32,
        threshold: u32,
        layers: &LayerRegistry,
    ) -> HealthAction {
        if threshold == 0 {
            return HealthAction::default();
        }
        let mut sup = self.supervision();
        if sup.error_gen != generation {
            sup.error_gen = generation;
            sup.error_count = 0;
        }
        sup.error_count = sup.error_count.saturating_add(failed);
        // Installs hold the supervision lock, so the generation cannot
        // move between this check and the rollback below.
        if sup.error_count < threshold || self.generation() != generation {
            return HealthAction::default();
        }
        let Some(record) = sup.history.iter_mut().find(|r| r.server_gen == generation) else {
            return HealthAction::default();
        };
        if record.quarantined {
            return HealthAction::default(); // another worker already tripped it
        }
        record.quarantined = true;
        sup.quarantines += 1;
        sup.error_count = 0;
        let Some(target) = sup.history.iter().rposition(|r| !r.quarantined) else {
            return HealthAction {
                quarantined: true,
                rolled_back: false,
            };
        };
        let registry_target = sup.history[target].registry_gen;
        // The rollback may republish under a fresh registry generation:
        // carry the target's lineage forward so callers still know which
        // publish these weights are.
        let lineage = sup.history[target].lineage;
        let reloaded = match (&sup.binding, registry_target) {
            (Some((store, name)), Some(reg_gen)) => store
                .rollback(name, Some(reg_gen))
                .and_then(|v| store.load(name, Some(v.generation), layers))
                .ok(),
            _ => None,
        };
        let (network, registry_gen) = match reloaded {
            Some((network, version)) => (Arc::new(network), Some(version.generation)),
            None => (Arc::clone(&sup.history[target].network), registry_target),
        };
        self.install(&mut sup, network, registry_gen, lineage);
        sup.auto_rollbacks += 1;
        HealthAction {
            quarantined: true,
            rolled_back: true,
        }
    }

    /// Slot generations quarantined so far (among those still retained).
    pub fn quarantined_generations(&self) -> Vec<u64> {
        self.supervision()
            .history
            .iter()
            .filter(|r| r.quarantined)
            .map(|r| r.server_gen)
            .collect()
    }

    /// `(quarantines, auto_rollbacks)` performed by the supervisor so
    /// far.
    pub fn counts(&self) -> (u64, u64) {
        let sup = self.supervision();
        (sup.quarantines, sup.auto_rollbacks)
    }

    /// Retained history, oldest first: `(slot_generation,
    /// registry_generation, lineage)` per record.
    pub fn history(&self) -> Vec<(u64, Option<u64>, Option<u64>)> {
        self.supervision()
            .history
            .iter()
            .map(|r| (r.server_gen, r.registry_gen, r.lineage))
            .collect()
    }

    /// Lineage (originally-published registry generation) of the given
    /// slot generation, if it is still retained.
    pub fn lineage_of(&self, server_gen: u64) -> Option<u64> {
        self.supervision()
            .history
            .iter()
            .find(|r| r.server_gen == server_gen)
            .and_then(|r| r.lineage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffdl_core::full_registry;
    use ffdl_deploy::parse_architecture;
    use std::collections::HashMap;
    use std::sync::atomic::AtomicBool;
    use std::thread;

    /// A distinct shared network; empty, since these tests only compare
    /// `Arc` identities.
    fn net() -> Arc<Network> {
        Arc::new(Network::new())
    }

    /// One in-memory supervisor scenario: generation 1 plus `swaps`
    /// installed generations, then `reports` in order.
    struct Case {
        name: &'static str,
        swaps: u64,
        threshold: u32,
        /// `(generation, failed)` per report.
        reports: &'static [(u64, u32)],
        /// What the last report triggered.
        last: HealthAction,
        quarantined: &'static [u64],
        rollbacks: u64,
        /// Current generation at the end.
        generation: u64,
        /// The generation whose `Arc` the slot serves at the end.
        serves: u64,
    }

    const NOTHING: HealthAction = HealthAction {
        quarantined: false,
        rolled_back: false,
    };
    const QUARANTINED: HealthAction = HealthAction {
        quarantined: true,
        rolled_back: false,
    };
    const ROLLED_BACK: HealthAction = HealthAction {
        quarantined: true,
        rolled_back: true,
    };

    const CASES: &[Case] = &[
        Case {
            name: "threshold 0 disables the supervisor",
            swaps: 1,
            threshold: 0,
            reports: &[(2, 1000)],
            last: NOTHING,
            quarantined: &[],
            rollbacks: 0,
            generation: 2,
            serves: 2,
        },
        Case {
            name: "failures below the threshold only count",
            swaps: 1,
            threshold: 3,
            reports: &[(2, 1), (2, 1)],
            last: NOTHING,
            quarantined: &[],
            rollbacks: 0,
            generation: 2,
            serves: 2,
        },
        Case {
            name: "a generation change resets the streak",
            swaps: 1,
            threshold: 3,
            reports: &[(1, 2), (2, 2)],
            last: NOTHING,
            quarantined: &[],
            rollbacks: 0,
            generation: 2,
            serves: 2,
        },
        Case {
            name: "failures against a stale generation are ignored",
            swaps: 2,
            threshold: 1,
            reports: &[(2, 10)],
            last: NOTHING,
            quarantined: &[],
            rollbacks: 0,
            generation: 3,
            serves: 3,
        },
        Case {
            name: "the trip rolls back to the retained healthy Arc",
            swaps: 1,
            threshold: 4,
            reports: &[(2, 4)],
            last: ROLLED_BACK,
            quarantined: &[2],
            rollbacks: 1,
            generation: 3,
            serves: 1,
        },
        Case {
            name: "rollback skips quarantined generations",
            swaps: 2,
            threshold: 1,
            reports: &[(3, 1), (4, 1)],
            last: ROLLED_BACK,
            quarantined: &[3, 4],
            rollbacks: 2,
            generation: 5,
            serves: 2,
        },
        Case {
            name: "no healthy target: quarantine without a rollback",
            swaps: 0,
            threshold: 1,
            reports: &[(1, 1)],
            last: QUARANTINED,
            quarantined: &[1],
            rollbacks: 0,
            generation: 1,
            serves: 1,
        },
        Case {
            name: "a second trip of a quarantined generation is a no-op",
            swaps: 0,
            threshold: 1,
            reports: &[(1, 1), (1, 1)],
            last: NOTHING,
            quarantined: &[1],
            rollbacks: 0,
            generation: 1,
            serves: 1,
        },
    ];

    #[test]
    fn supervisor_table() {
        let layers = full_registry();
        for case in CASES {
            let first = net();
            let slot = ModelSlot::new(Arc::clone(&first), None, None);
            let mut installed = vec![first];
            for _ in 0..case.swaps {
                let next = net();
                slot.swap(Arc::clone(&next));
                installed.push(next);
            }
            let mut last = None;
            for &(generation, failed) in case.reports {
                last = Some(slot.report_unhealthy(generation, failed, case.threshold, &layers));
            }
            let name = case.name;
            assert_eq!(last, Some(case.last), "{name}: last action");
            assert_eq!(slot.quarantined_generations(), case.quarantined, "{name}");
            let quarantines = case.quarantined.len() as u64;
            assert_eq!(
                slot.counts(),
                (quarantines, case.rollbacks),
                "{name}: counts"
            );
            let (generation, network) = slot.current();
            assert_eq!(generation, case.generation, "{name}: generation");
            assert_eq!(slot.generation(), case.generation, "{name}: fast path");
            let expected = &installed[case.serves as usize - 1];
            assert!(
                Arc::ptr_eq(&network, expected),
                "{name}: serves gen {}",
                case.serves
            );
        }
    }

    #[test]
    fn history_is_capped_and_evicts_the_oldest() {
        let slot = ModelSlot::new(net(), None, None);
        let last = HISTORY_DEPTH as u64 + 2;
        for expect in 2..=last {
            assert_eq!(slot.swap(net()), expect);
        }
        let history = slot.history();
        assert_eq!(history.len(), HISTORY_DEPTH);
        let generations: Vec<u64> = history.iter().map(|r| r.0).collect();
        let oldest = last + 1 - HISTORY_DEPTH as u64;
        assert_eq!(generations, (oldest..=last).collect::<Vec<_>>());
    }

    const ARCH: &str = "input 8\ncirculant_fc 8 block=4\nrelu\nfc 2\nsoftmax\n";

    /// A store holding two publishes of `m`, and a slot that started on
    /// registry generation 1 and was swapped to generation 2.
    fn bound_slot(tag: &str) -> (std::path::PathBuf, ModelStore, ModelSlot, Arc<Network>) {
        let dir = std::env::temp_dir().join(format!("ffdl-slot-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ModelStore::open(&dir).expect("open store");
        let layers = full_registry();
        for seed in [1, 2] {
            let network = parse_architecture(ARCH, seed).expect("arch parses").network;
            store.publish("m", &network, "slot-test").expect("publish");
        }
        let (first, version) = store.load("m", Some(1), &layers).expect("load gen 1");
        let first = Arc::new(first);
        let binding = Some((store.clone(), "m".to_string()));
        let slot = ModelSlot::new(Arc::clone(&first), Some(version.generation), binding);
        assert_eq!(
            slot.swap_from_store(&store, "m", Some(2), None, &layers)
                .unwrap(),
            2
        );
        (dir, store, slot, first)
    }

    #[test]
    fn registry_rollback_is_preferred_and_carries_the_target_lineage() {
        let (dir, store, slot, first) = bound_slot("registry");
        let action = slot.report_unhealthy(2, 1, 1, &full_registry());
        assert_eq!(action, ROLLED_BACK);
        // Registry generation 3 republishes generation 1's bytes; the
        // record keeps generation 1 as its lineage.
        assert_eq!(store.latest("m").unwrap().generation, 3);
        assert_eq!(
            slot.history(),
            vec![
                (1, Some(1), Some(1)),
                (2, Some(2), Some(2)),
                (3, Some(3), Some(1))
            ]
        );
        assert_eq!(slot.lineage_of(3), Some(1));
        // A fresh load, not the retained Arc.
        let (generation, network) = slot.current();
        assert_eq!(generation, 3);
        assert!(!Arc::ptr_eq(&network, &first));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn failed_registry_rollback_falls_back_to_the_retained_arc() {
        let (dir, _store, slot, first) = bound_slot("fallback");
        std::fs::remove_dir_all(&dir).expect("remove store");
        let action = slot.report_unhealthy(2, 1, 1, &full_registry());
        assert_eq!(action, ROLLED_BACK);
        let (generation, network) = slot.current();
        assert_eq!(generation, 3);
        assert!(Arc::ptr_eq(&network, &first));
        assert_eq!(slot.history().last(), Some(&(3, Some(1), Some(1))));
    }

    /// The pair invariant under contention: whatever `current()` returns
    /// is the network that was installed as that generation.
    #[test]
    fn current_pair_is_consistent_under_concurrent_installs() {
        const INSTALLERS: usize = 2;
        const INSTALLS: usize = 300;
        const READERS: usize = 2;
        let first = net();
        let slot = ModelSlot::new(Arc::clone(&first), None, None);
        let done = AtomicBool::new(false);
        let (installed, seen) = thread::scope(|s| {
            let readers: Vec<_> = (0..READERS)
                .map(|_| {
                    s.spawn(|| {
                        let mut seen = Vec::new();
                        while !done.load(Ordering::Acquire) {
                            let floor = slot.generation();
                            let pair = slot.current();
                            assert!(pair.0 >= floor, "generation went backwards");
                            seen.push(pair);
                        }
                        seen
                    })
                })
                .collect();
            let installers: Vec<_> = (0..INSTALLERS)
                .map(|_| {
                    s.spawn(|| {
                        (0..INSTALLS)
                            .map(|_| {
                                let network = net();
                                (slot.swap(Arc::clone(&network)), network)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let installed: Vec<_> = installers
                .into_iter()
                .flat_map(|h| h.join().expect("installer"))
                .collect();
            done.store(true, Ordering::Release);
            let seen: Vec<_> = readers
                .into_iter()
                .flat_map(|h| h.join().expect("reader"))
                .collect();
            (installed, seen)
        });
        let mut by_generation: HashMap<u64, Arc<Network>> = installed.into_iter().collect();
        by_generation.insert(1, first);
        assert_eq!(by_generation.len(), 1 + INSTALLERS * INSTALLS);
        assert!(!seen.is_empty());
        for (generation, network) in &seen {
            assert!(
                Arc::ptr_eq(network, &by_generation[generation]),
                "generation {generation} served a network installed under another generation"
            );
        }
    }
}
