// Predictive prevention actuation with effectiveness validation (paper
// Section II-D).
//
// Maps a diagnosis (faulty VM + ranked metrics) onto hypervisor actions:
//
//  * memory-implicated metrics -> memory ballooning up;
//  * CPU-implicated metrics    -> CPU cap increase;
//  * live migration            -> relocate the VM to a host with matching
//    resources, landing with a grown allocation of the implicated kind.
//
// Mode selects the paper's two experiment configurations (scaling for
// Figs. 6/7, migration for Figs. 8/9) plus the deployment default:
// scaling first, migration when scaling cannot be applied ("insufficient
// resources on the local host").
//
// Every action opens a validation record: after a look-ahead delay the
// actuator compares the acted metric's usage against the pre-action
// look-back window. If the component is healthy again the prevention
// succeeded; if the metric did not respond, the action targeted the
// wrong metric and the next metric in the TAN ranking is tried.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/cause_inference.h"
#include "core/decision_sinks.h"
#include "monitor/attributes.h"
#include "monitor/metric_store.h"
#include "sim/hypervisor.h"

namespace prepare {

enum class PreventionMode {
  kScalingOnly,
  kMigrationOnly,
  kScalingThenMigration,
};

/// The resource a metric implicates: scaling grows the VM's CPU cap or
/// its memory; an "other" metric (network, disk) cannot be scaled.
/// Values match obs::PreventionEvidence::metric_kind.
enum class MetricKind { kCpu, kMemory, kOther };
MetricKind metric_kind(Attribute a);

/// Where an attempt sits: the walk down a fresh diagnosis's ranking,
/// the companion scaling of the other resource kind, or a fallback after
/// a failed validation. Values match obs::PreventionEvidence::phase.
enum class PreventionPhase { kInitial, kCompanion, kFallback };

/// The remedy an attempt applied. Values match
/// obs::PreventionEvidence::applied.
enum class Remedy { kNone, kScale, kMigrate };

/// The prevention policy (Section II-D): which remedy one ranked metric
/// gets under `mode`. `scale` and `migrate` are the two attempts,
/// callables returning whether the remedy is (or was) possible; each is
/// consulted at most once, in policy order. Only cpu and memory metrics
/// can be scaled, and a companion attempt is always a scaling. The live
/// actuator passes real attempts; replay and what-if pass the outcomes
/// an episode bundle captured.
template <typename Scale, typename Migrate>
Remedy prevention_policy(PreventionMode mode, MetricKind kind,
                         PreventionPhase phase, Scale scale,
                         Migrate migrate) {
  const auto scaled = [&] { return kind != MetricKind::kOther && scale(); };
  if (phase == PreventionPhase::kCompanion ||
      mode == PreventionMode::kScalingOnly)
    return scaled() ? Remedy::kScale : Remedy::kNone;
  if (mode == PreventionMode::kMigrationOnly) {
    // Migration unavailable (cooldown, no target host): scaling on the
    // current host is the only remaining remedy.
    if (migrate()) return Remedy::kMigrate;
    return scaled() ? Remedy::kScale : Remedy::kNone;
  }
  if (scaled()) return Remedy::kScale;
  return migrate() ? Remedy::kMigrate : Remedy::kNone;
}

struct PreventionConfig {
  PreventionMode mode = PreventionMode::kScalingThenMigration;
  /// Scaling targets: new allocation = old x factor (clamped to host
  /// headroom; a clamped-to-nothing increase counts as "cannot scale").
  double cpu_scale_factor = 1.6;
  double mem_scale_factor = 2.0;
  /// Migration lands the VM with a larger grown allocation of the
  /// implicated resource — a host "with the desired resources" should
  /// also absorb further growth, since a second migration is expensive.
  double migration_cpu_factor = 1.8;
  double migration_mem_factor = 2.5;
  /// Minimum meaningful allocation increase; below this scaling is
  /// reported impossible (insufficient resources on the local host).
  double min_cpu_step = 0.1;
  double min_mem_step_mb = 64.0;
  /// Prevention-effectiveness validation (paper Section II-D). When
  /// disabled (ablation), actions fire but a wrong-metric prevention is
  /// never corrected by falling back to the next ranked metric.
  bool validation_enabled = true;
  /// Companion scaling: also act on the next ranked metric of the other
  /// resource kind in the same shot (a saturated CPU is often the
  /// symptom of a memory root cause). Disable to rely on validation
  /// fallback alone (ablation).
  bool companion_scaling = true;
  /// Validation windows (paper: look-back / look-ahead around the
  /// prevention) and the relative usage change that counts as an effect.
  double validation_delay_s = 20.0;
  double lookback_s = 20.0;
  double min_relative_change = 0.08;
  /// Elastic scale-down (CloudScale-style [4]): allocations grown by a
  /// prevention are returned toward the baseline once the VM has been
  /// healthy and under-utilized for a sustained window, so one incident
  /// does not permanently over-provision the VM.
  bool reclaim_enabled = true;
  double reclaim_idle_s = 60.0;       ///< sustained healthy+idle window
  double reclaim_cpu_util_pct = 40.0; ///< mean CPU% below this is idle
  double reclaim_mem_util_pct = 55.0; ///< mean mem% below this is idle
  double reclaim_factor = 0.75;       ///< shrink per reclaim step
  /// A VM that just migrated is not migrated again for this long — live
  /// migration is expensive and ping-ponging a VM between hosts makes
  /// the degradation it is meant to cure worse.
  double migration_cooldown_s = 90.0;
};

class PreventionActuator {
 public:
  /// Every decision (each attempt, including failed ones, each fired
  /// action, each validation verdict) is reported to `sinks`, which
  /// must outlive the actuator.
  PreventionActuator(Hypervisor* hypervisor, Cluster* cluster,
                     const MetricStore* store, DecisionSinks* sinks,
                     PreventionConfig config = PreventionConfig());

  /// Triggers a prevention for one diagnosed faulty VM. Returns true if
  /// an action was fired. No-op while a validation for that VM is open.
  bool actuate(const Diagnosis::FaultyVm& faulty, double now);

  /// Drives validation; call once per sampling interval with the set of
  /// VMs that are still unhealthy (alerting or SLO-violating).
  void on_sample(double now, const std::set<std::string>& unhealthy);

  /// Whether a validation is currently open for the VM.
  bool validation_open(const std::string& vm_name) const;

  const PreventionConfig& config() const { return config_; }

  // Counters for experiments / tests.
  std::size_t actions_fired() const {
    return sinks_->count(DecisionKind::kActionFired);
  }
  std::size_t validations_failed() const {
    return sinks_->count(DecisionKind::kValidationFailed);
  }

 private:
  struct PendingValidation {
    double action_time = 0.0;
    Attribute acted{};
    std::vector<Attribute> ranked;  ///< full ranking for fallback
    std::size_t next_index = 0;     ///< next ranked metric to try
    double lookback_mean = 0.0;
  };

  /// A scaling remedy's size on the VM's current host: the new
  /// allocation and the growth it asks of the host.
  struct ScaleStep { double target, delta; };
  /// A migration remedy's size: the best host that fits (null when none
  /// does) and the grown allocation the VM lands with there.
  struct MigrationTarget { Host* host; double cpu, mem; };

  /// Runs the prevention policy for `vm` keyed on attribute `a` and
  /// reports the attempt; returns false if no remedy could be applied.
  bool apply_action(Vm* vm, Attribute a, double now, PreventionPhase phase);
  bool try_scale(Vm* vm, MetricKind kind);
  bool try_migrate(Vm* vm, double now);
  /// Side-effect-free feasibility probes over the same sizing as
  /// try_scale / try_migrate. They fill only the attempt evidence flags
  /// the policy did not consult (what-if replay needs both flags).
  bool probe_can_scale(const Vm& vm, MetricKind kind) const;
  bool probe_can_migrate(const Vm& vm, double now) const;
  /// Null when the growth clamped to the host's headroom stays below
  /// the minimum step (or the metric is not scalable).
  std::optional<ScaleStep> scale_step(const Vm& vm, MetricKind kind,
                                      const Host& host) const;
  /// Null while the VM is in its migration cooldown.
  std::optional<MigrationTarget> migration_target(const Vm& vm,
                                                  double now) const;
  /// One fired action: reported, and the VM's last-action time.
  void fire(const std::string& vm, double now, const std::string& action);
  double lookback_mean(const std::string& vm, Attribute a, double now) const;
  void maybe_reclaim(double now, const std::set<std::string>& unhealthy);

  Hypervisor* hypervisor_;
  Cluster* cluster_;
  const MetricStore* store_;
  DecisionSinks* sinks_;
  PreventionConfig config_;

  std::map<std::string, PendingValidation> pending_;
  /// Baseline allocations (cpu cores, mem MB) snapshotted at construction.
  std::map<std::string, std::pair<double, double>> baseline_;
  std::map<std::string, double> last_action_time_;
  std::map<std::string, double> last_migration_time_;
};

}  // namespace prepare
