//! Registries of the paper's system families, probe strategies and failure
//! scenarios.
//!
//! The registries make the evaluation engine *table-driven*: every named
//! construction of `quorum-systems`, every probing algorithm of
//! `quorum-probe` and every failure regime of [`crate::FailureModel`] is
//! enumerable, buildable from a size hint, and pairable —
//! [`StrategyRegistry::compatible_pairs`] yields exactly the `(system,
//! strategy)` cells a survey should run, and [`ScenarioRegistry::standard`]
//! names the failure scenarios a scenario matrix sweeps them under.

use quorum_probe::strategies::{
    IrProbeHqs, ProbeCw, ProbeHqs, ProbeMaj, ProbeTree, RProbeCw, RProbeHqs, RProbeMaj, RProbeTree,
    RandomScan, SequentialScan,
};
use std::sync::Arc;

use quorum_core::Organizations;
use quorum_systems::{CrumblingWalls, Hqs, Majority, SystemSpec, TreeQuorum};

use super::dynsys::{erase_spec, typed_strategy, universal_strategy, DynProbeStrategy, DynSystem};
use super::plan::ColoringSource;

/// A named system family, buildable from an approximate universe size.
#[derive(Debug, Clone)]
pub struct SystemEntry {
    /// Family name, one of [`SystemSpec::FAMILIES`].
    pub family: &'static str,
}

impl SystemEntry {
    /// Builds an instance with roughly `size_hint` elements (rounded to
    /// whatever the family supports) through
    /// [`SystemSpec::family_with_size_hint`] and [`erase_spec`], so every
    /// registry system comes from the same construction path as
    /// user-written specs while typed strategies keep downcasting.
    pub fn build(&self, size_hint: usize) -> DynSystem {
        let family = self.family;
        let spec = SystemSpec::family_with_size_hint(family, size_hint)
            .unwrap_or_else(|| panic!("{family} is not a spec family"));
        erase_spec(&spec)
            .unwrap_or_else(|e| panic!("{family} spec invalid for hint {size_hint}: {e}"))
    }
}

/// The registry of system families.
#[derive(Debug, Clone)]
pub struct SystemRegistry {
    entries: Vec<SystemEntry>,
}

impl SystemRegistry {
    /// Every family of [`SystemSpec::FAMILIES`], in its order: the families
    /// studied by the paper (Maj, Wheel, Triang, Tree, HQS) plus the Grid
    /// baseline and the recursive Compose family (an organization-aligned
    /// majority-of-majorities).
    ///
    /// Every entry is built through [`SystemSpec::family_with_size_hint`] +
    /// [`erase_spec`], so the registry exercises the same construction API
    /// as user-written specs; the concrete constructors remain available as
    /// thin wrappers for direct use.
    pub fn paper() -> Self {
        SystemRegistry {
            entries: SystemSpec::FAMILIES
                .into_iter()
                .map(|family| SystemEntry { family })
                .collect(),
        }
    }

    /// All entries.
    pub fn entries(&self) -> &[SystemEntry] {
        &self.entries
    }

    /// Looks an entry up by family name.
    pub fn get(&self, family: &str) -> Option<&SystemEntry> {
        self.entries.iter().find(|e| e.family == family)
    }

    /// Builds an instance of `family` with roughly `size_hint` elements.
    pub fn build(&self, family: &str, size_hint: usize) -> Option<DynSystem> {
        self.get(family).map(|e| e.build(size_hint))
    }
}

/// A named probe strategy, buildable as a [`DynProbeStrategy`].
#[derive(Clone)]
pub struct StrategyEntry {
    /// Canonical name, e.g. `"Probe_CW"`.
    pub name: &'static str,
    /// Builds the strategy.
    pub build: fn() -> DynProbeStrategy,
}

impl std::fmt::Debug for StrategyEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StrategyEntry")
            .field("name", &self.name)
            .finish()
    }
}

/// Every strategy of the paper (Sections 3 and 4) plus the generic scan
/// baselines, in registry order: a survey or scenario matrix runs its
/// strategies in this order.
static PAPER_STRATEGIES: [StrategyEntry; 11] = [
    StrategyEntry {
        name: "Probe_Maj",
        build: || typed_strategy::<Majority, _>(ProbeMaj::new()),
    },
    StrategyEntry {
        name: "R_Probe_Maj",
        build: || typed_strategy::<Majority, _>(RProbeMaj::new()),
    },
    StrategyEntry {
        name: "Probe_CW",
        build: || typed_strategy::<CrumblingWalls, _>(ProbeCw::new()),
    },
    StrategyEntry {
        name: "R_Probe_CW",
        build: || typed_strategy::<CrumblingWalls, _>(RProbeCw::new()),
    },
    StrategyEntry {
        name: "Probe_Tree",
        build: || typed_strategy::<TreeQuorum, _>(ProbeTree::new()),
    },
    StrategyEntry {
        name: "R_Probe_Tree",
        build: || typed_strategy::<TreeQuorum, _>(RProbeTree::new()),
    },
    StrategyEntry {
        name: "Probe_HQS",
        build: || typed_strategy::<Hqs, _>(ProbeHqs::new()),
    },
    StrategyEntry {
        name: "R_Probe_HQS",
        build: || typed_strategy::<Hqs, _>(RProbeHqs::new()),
    },
    StrategyEntry {
        name: "IR_Probe_HQS",
        build: || typed_strategy::<Hqs, _>(IrProbeHqs::new()),
    },
    StrategyEntry {
        name: "SequentialScan",
        build: || universal_strategy(SequentialScan::new()),
    },
    StrategyEntry {
        name: "RandomScan",
        build: || universal_strategy(RandomScan::new()),
    },
];

/// The registry of probe strategies.
#[derive(Debug, Clone)]
pub struct StrategyRegistry {
    entries: &'static [StrategyEntry],
}

impl StrategyRegistry {
    /// Every strategy of the paper (Sections 3 and 4) plus the generic
    /// scan baselines — eleven entries.
    pub fn paper() -> Self {
        StrategyRegistry {
            entries: &PAPER_STRATEGIES,
        }
    }

    /// All entries.
    pub fn entries(&self) -> &[StrategyEntry] {
        self.entries
    }

    /// Looks an entry up by canonical name.
    pub fn get(&self, name: &str) -> Option<&StrategyEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Builds the strategy registered under `name`.
    pub fn build(&self, name: &str) -> Option<DynProbeStrategy> {
        self.get(name).map(|e| (e.build)())
    }

    /// Every `(system, strategy)` pair that can run together, with systems
    /// built at roughly `size_hint` elements.
    pub fn compatible_pairs(
        &self,
        systems: &SystemRegistry,
        size_hint: usize,
    ) -> Vec<(DynSystem, DynProbeStrategy)> {
        let mut pairs = Vec::new();
        for system_entry in systems.entries() {
            let system = system_entry.build(size_hint);
            for strategy_entry in self.entries() {
                let strategy = (strategy_entry.build)();
                if strategy.supports(system.as_ref()) {
                    pairs.push((system.clone(), strategy));
                }
            }
        }
        pairs
    }
}

/// A named failure scenario, buildable for any universe size.
#[derive(Clone)]
pub struct ScenarioEntry {
    /// Canonical name, e.g. `"zoned-strong"`.
    pub name: &'static str,
    /// Builds the scenario's [`ColoringSource`] for a universe of `n`
    /// elements; `seed` feeds time-dependent scenarios (churn trajectories)
    /// so the whole matrix stays a pure function of the plan seed.
    pub build: fn(n: usize, seed: u64) -> ColoringSource,
}

impl std::fmt::Debug for ScenarioEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioEntry")
            .field("name", &self.name)
            .finish()
    }
}

/// The registry of failure scenarios: the axis that turns a `(system,
/// strategy)` survey into a scenario matrix.
#[derive(Debug, Clone)]
pub struct ScenarioRegistry {
    entries: Vec<ScenarioEntry>,
}

/// Steps in every registry churn trajectory: long enough to average the
/// timeline, short enough that small CI runs replay it a few times.
const CHURN_STEPS: usize = 512;

impl ScenarioRegistry {
    /// The standard scenario battery: the paper's i.i.d. regime plus
    /// correlated zones (weak → wholesale), an organization-outage regime
    /// (whole operators fail together), heterogeneous per-element rates
    /// (gradient and hot spot), and fail/repair churn at two intensities.
    ///
    /// All zoned and organization scenarios share a per-element failure
    /// marginal of 0.3, so rows differ only in *how* failures are arranged —
    /// exactly the comparison the i.i.d. analysis cannot make.
    pub fn standard() -> Self {
        ScenarioRegistry {
            entries: vec![
                ScenarioEntry {
                    name: "iid-0.3",
                    build: |_, _| ColoringSource::iid(0.3),
                },
                ScenarioEntry {
                    name: "iid-0.5",
                    build: |_, _| ColoringSource::iid(0.5),
                },
                ScenarioEntry {
                    name: "zoned-weak",
                    build: |n, _| ColoringSource::zoned_correlated(zone_count_for(n), 0.3, 0.25),
                },
                ScenarioEntry {
                    name: "zoned-strong",
                    build: |n, _| ColoringSource::zoned_correlated(zone_count_for(n), 0.3, 0.75),
                },
                ScenarioEntry {
                    name: "zoned-wholesale",
                    build: |n, _| ColoringSource::zoned_correlated(zone_count_for(n), 0.3, 1.0),
                },
                ScenarioEntry {
                    name: "org-outage",
                    build: |n, _| {
                        let orgs = Organizations::contiguous(n, zone_count_for(n))
                            .expect("zone_count_for stays within 1..=n");
                        ColoringSource::org_zoned_correlated(Arc::new(orgs), 0.3, 0.75)
                    },
                },
                ScenarioEntry {
                    name: "hetero-gradient",
                    build: |n, _| {
                        // Linear ramp 0.1 → 0.5 across the universe; mean 0.3.
                        let probs = (0..n)
                            .map(|e| 0.1 + 0.4 * e as f64 / (n.max(2) - 1) as f64)
                            .collect();
                        ColoringSource::heterogeneous(probs)
                    },
                },
                ScenarioEntry {
                    name: "hetero-hotspot",
                    build: |n, _| {
                        // One failure-prone element in ten; the rest are
                        // reliable. Mean rate ≈ 0.9/10 + 0.2·9/10 = 0.27.
                        let probs = (0..n)
                            .map(|e| if e % 10 == 0 { 0.9 } else { 0.2 })
                            .collect();
                        ColoringSource::heterogeneous(probs)
                    },
                },
                ScenarioEntry {
                    name: "churn-slow",
                    build: |n, seed| ColoringSource::churn(n, 0.05, 0.15, CHURN_STEPS, seed),
                },
                ScenarioEntry {
                    name: "churn-fast",
                    build: |n, seed| ColoringSource::churn(n, 0.3, 0.5, CHURN_STEPS, seed),
                },
            ],
        }
    }

    /// All entries.
    pub fn entries(&self) -> &[ScenarioEntry] {
        &self.entries
    }

    /// Looks an entry up by name.
    pub fn get(&self, name: &str) -> Option<&ScenarioEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Builds the scenario registered under `name` for a universe of `n`.
    pub fn build(&self, name: &str, n: usize, seed: u64) -> Option<ColoringSource> {
        self.get(name).map(|e| (e.build)(n, seed))
    }
}

/// Zone count used by the registry's zoned scenarios: about one zone per ten
/// elements, at least two so correlation is visible, never more than `n`.
fn zone_count_for(n: usize) -> usize {
    (n / 10).max(2).min(n.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use quorum_systems::{Composition, Grid, Wheel};
    use rand::SeedableRng;

    use super::super::engine::TrialRng;

    /// The registry is [`SystemSpec::FAMILIES`], in order: every name
    /// resolves through [`SystemSpec::family_with_size_hint`], an unknown
    /// one does not, and every family's build keeps its concrete type.
    #[test]
    fn registry_families_are_the_spec_families() {
        let registry = SystemRegistry::paper();
        let families: Vec<&str> = registry.entries().iter().map(|e| e.family).collect();
        assert_eq!(families, SystemSpec::FAMILIES);
        assert!(SystemSpec::family_with_size_hint("NoSuchFamily", 10).is_none());
        let concrete: [fn(&dyn std::any::Any) -> bool; 7] = [
            |s| s.is::<Majority>(),
            |s| s.is::<Wheel>(),
            |s| s.is::<CrumblingWalls>(),
            |s| s.is::<TreeQuorum>(),
            |s| s.is::<Hqs>(),
            |s| s.is::<Grid>(),
            |s| s.is::<Composition>(),
        ];
        for (entry, is_concrete) in registry.entries().iter().zip(concrete) {
            for hint in [3, 10, 30, 100] {
                let spec = SystemSpec::family_with_size_hint(entry.family, hint).unwrap();
                let system = entry.build(hint);
                assert!(
                    is_concrete(system.as_ref().as_any()),
                    "{} at hint {hint} lost its concrete type",
                    entry.family
                );
                assert_eq!(
                    system.universe_size(),
                    spec.build().unwrap().universe_size(),
                    "{} at hint {hint}",
                    entry.family
                );
            }
        }
    }

    #[test]
    fn system_registry_builds_every_family() {
        let registry = SystemRegistry::paper();
        assert_eq!(registry.entries().len(), 7);
        for entry in registry.entries() {
            let system = entry.build(20);
            assert!(system.universe_size() >= 3, "{} too small", entry.family);
        }
        assert!(registry.build("Maj", 10).is_some());
        assert!(registry.build("NoSuchFamily", 10).is_none());
    }

    /// The spec-built registry still hands typed strategies their concrete
    /// systems: migration to `SystemSpec` must not break downcasting.
    #[test]
    fn registry_systems_stay_downcastable() {
        let registry = SystemRegistry::paper();
        let maj = registry.build("Maj", 9).expect("registered");
        assert!(maj.as_ref().as_any().is::<Majority>());
        assert!(registry
            .build("Tree", 9)
            .expect("registered")
            .as_ref()
            .as_any()
            .is::<TreeQuorum>());
        assert!(registry
            .build("Compose", 25)
            .expect("registered")
            .as_ref()
            .as_any()
            .is::<Composition>());
        let probe_maj = StrategyRegistry::paper().build("Probe_Maj").unwrap();
        assert!(probe_maj.supports(maj.as_ref()));
    }

    /// The table's order is the order `scenario-matrix` and the survey
    /// run their strategies in, so it is pinned here name by name.
    #[test]
    fn strategy_registry_names_match_the_strategies() {
        let registry = StrategyRegistry::paper();
        let names: Vec<&str> = registry.entries().iter().map(|e| e.name).collect();
        assert_eq!(
            names,
            [
                "Probe_Maj",
                "R_Probe_Maj",
                "Probe_CW",
                "R_Probe_CW",
                "Probe_Tree",
                "R_Probe_Tree",
                "Probe_HQS",
                "R_Probe_HQS",
                "IR_Probe_HQS",
                "SequentialScan",
                "RandomScan",
            ]
        );
        assert!(registry.build("NoSuchStrategy").is_none());
        for entry in registry.entries() {
            let strategy = (entry.build)();
            assert_eq!(strategy.name(), entry.name, "registry name drifted");
        }
    }

    #[test]
    fn scenario_registry_builds_every_scenario() {
        let scenarios = ScenarioRegistry::standard();
        assert_eq!(scenarios.entries().len(), 10);
        let mut rng = TrialRng::seed_from_u64(1);
        for entry in scenarios.entries() {
            for n in [9usize, 21, 64] {
                let source = (entry.build)(n, 42);
                let coloring = source.sample(n, 3, &mut rng);
                assert_eq!(
                    coloring.universe_size(),
                    n,
                    "{} built a wrong-sized coloring",
                    entry.name
                );
            }
        }
        assert!(scenarios.build("iid-0.5", 10, 1).is_some());
        assert!(scenarios.build("no-such-scenario", 10, 1).is_none());
        assert!(scenarios.get("churn-fast").is_some());
    }

    #[test]
    fn scenario_labels_are_distinct() {
        let scenarios = ScenarioRegistry::standard();
        let mut labels: Vec<String> = scenarios
            .entries()
            .iter()
            .map(|e| (e.build)(30, 7).label())
            .collect();
        labels.sort();
        labels.dedup();
        assert_eq!(
            labels.len(),
            scenarios.entries().len(),
            "two scenarios render the same label"
        );
    }

    #[test]
    fn compatible_pairs_cover_typed_and_generic_strategies() {
        let systems = SystemRegistry::paper();
        let strategies = StrategyRegistry::paper();
        let pairs = strategies.compatible_pairs(&systems, 15);
        for (system, strategy) in &pairs {
            assert!(strategy.supports(system.as_ref()));
        }
        // 7 families × 2 generic scans, plus the typed pairs: Maj 2,
        // Triang (CrumblingWalls) 2, Tree 2, HQS 3. Compose only matches
        // the generic scans — no typed strategy knows its shape.
        assert_eq!(
            pairs.len(),
            7 * 2 + 2 + 2 + 2 + 3,
            "pair count drifted: {}",
            pairs.len()
        );
        let maj_strategies: Vec<String> = pairs
            .iter()
            .filter(|(s, _)| s.name().starts_with("Maj"))
            .map(|(_, t)| t.name())
            .collect();
        assert!(maj_strategies.contains(&"Probe_Maj".to_string()));
        assert!(maj_strategies.contains(&"R_Probe_Maj".to_string()));
        assert!(maj_strategies.contains(&"SequentialScan".to_string()));
        assert!(maj_strategies.contains(&"RandomScan".to_string()));
    }
}
