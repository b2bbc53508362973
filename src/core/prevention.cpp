#include "core/prevention.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.h"

namespace prepare {

PreventionActuator::PreventionActuator(Hypervisor* hypervisor,
                                       Cluster* cluster,
                                       const MetricStore* store,
                                       DecisionSinks* sinks,
                                       PreventionConfig config)
    : hypervisor_(hypervisor),
      cluster_(cluster),
      store_(store),
      sinks_(sinks),
      config_(config) {
  PREPARE_CHECK(hypervisor != nullptr);
  PREPARE_CHECK(cluster != nullptr);
  PREPARE_CHECK(store != nullptr);
  PREPARE_CHECK(sinks != nullptr);
  sinks_->declare({DecisionKind::kActionFired, DecisionKind::kMigrationSkipped,
                   DecisionKind::kValidationFailed, DecisionKind::kReclaim});
  for (const auto& vm : cluster_->vms())
    baseline_.emplace(vm->name(),
                      std::make_pair(vm->cpu_alloc(), vm->mem_alloc()));
}

MetricKind metric_kind(Attribute a) {
  switch (a) {
    case Attribute::kCpuUtil:
    case Attribute::kCpuResidual:
    case Attribute::kLoad1:
    case Attribute::kLoad5:
    case Attribute::kRunQueue:
    case Attribute::kCtxSwitches:
      return MetricKind::kCpu;
    case Attribute::kFreeMem:
    case Attribute::kMemUtil:
    case Attribute::kPageFaults:
      return MetricKind::kMemory;
    default:
      return MetricKind::kOther;
  }
}

double PreventionActuator::lookback_mean(const std::string& vm, Attribute a,
                                         double now) const {
  const auto mean =
      store_->series(vm, a).mean_between(now - config_.lookback_s, now);
  return mean.value_or(0.0);
}

std::optional<PreventionActuator::ScaleStep> PreventionActuator::scale_step(
    const Vm& vm, MetricKind kind, const Host& host) const {
  if (kind == MetricKind::kOther) return std::nullopt;
  const bool cpu = kind == MetricKind::kCpu;
  const double alloc = cpu ? vm.cpu_alloc() : vm.mem_alloc();
  const double desired =
      alloc * (cpu ? config_.cpu_scale_factor : config_.mem_scale_factor);
  const double target = std::min(
      desired, alloc + (cpu ? host.cpu_headroom() : host.mem_headroom()));
  const double delta = target - alloc;
  if (delta < (cpu ? config_.min_cpu_step : config_.min_mem_step_mb))
    return std::nullopt;
  return ScaleStep{target, delta};
}

std::optional<PreventionActuator::MigrationTarget>
PreventionActuator::migration_target(const Vm& vm, double now) const {
  const auto last = last_migration_time_.find(vm.name());
  if (last != last_migration_time_.end() &&
      now - last->second < config_.migration_cooldown_s)
    return std::nullopt;
  // Land with generous headroom on BOTH resources: the paper relocates
  // the faulty VM "to a host with desired resources" (matching the VM's
  // demand pattern, PAC [15]) — a second migration is far more expensive
  // than landing big, and the diagnosis may have ranked a symptom metric
  // (saturated CPU) above the root resource (leaking memory).
  const double cpu = vm.cpu_alloc() * config_.migration_cpu_factor;
  const double mem = vm.mem_alloc() * config_.migration_mem_factor;
  return MigrationTarget{
      cluster_->find_best_target_host(cpu, mem, cluster_->host_of(vm)), cpu,
      mem};
}

bool PreventionActuator::try_scale(Vm* vm, MetricKind kind) {
  const Host* host = cluster_->host_of(*vm);
  PREPARE_CHECK(host != nullptr);
  const auto step = scale_step(*vm, kind, *host);
  if (!step) return false;
  return kind == MetricKind::kCpu ? hypervisor_->scale_cpu(vm, step->target)
                                  : hypervisor_->scale_memory(vm, step->target);
}

bool PreventionActuator::try_migrate(Vm* vm, double now) {
  const auto target = migration_target(*vm, now);
  if (!target) return false;
  if (target->host == nullptr) {
    sinks_->emit({.kind = DecisionKind::kMigrationSkipped, .t = now,
                  .vm = &vm->name(), .cpu = target->cpu,
                  .mem = target->mem});
    return false;
  }
  if (!hypervisor_->migrate(vm, target->host, target->cpu, target->mem))
    return false;
  last_migration_time_[vm->name()] = now;
  return true;
}

bool PreventionActuator::probe_can_scale(const Vm& vm, MetricKind kind) const {
  const Host* host = cluster_->host_of(vm);
  if (host == nullptr) return false;
  const auto step = scale_step(vm, kind, *host);
  if (!step) return false;
  const bool cpu = kind == MetricKind::kCpu;
  return host->can_grow(vm, cpu ? step->delta : 0.0, cpu ? 0.0 : step->delta);
}

bool PreventionActuator::probe_can_migrate(const Vm& vm, double now) const {
  if (vm.migrating()) return false;
  const auto target = migration_target(vm, now);
  return target && target->host != nullptr;
}

bool PreventionActuator::apply_action(Vm* vm, Attribute a, double now,
                                      PreventionPhase phase) {
  const MetricKind kind = metric_kind(a);
  // The recorder evidence keeps the outcomes of the attempts the policy
  // consulted, so offline replay re-derives the exact same decision.
  std::optional<bool> scaled, migrated;
  const Remedy applied = prevention_policy(
      config_.mode, kind, phase,
      [&] {
        scaled = try_scale(vm, kind);
        return *scaled;
      },
      [&] {
        migrated = try_migrate(vm, now);
        return *migrated;
      });
  obs::PreventionEvidence ev;
  ev.t = now;
  ev.phase = static_cast<int>(phase);
  ev.attribute = static_cast<std::size_t>(a);
  ev.metric_kind = static_cast<int>(kind);
  ev.scale_possible = scaled ? *scaled : probe_can_scale(*vm, kind);
  ev.migrate_possible = migrated ? *migrated : probe_can_migrate(*vm, now);
  ev.applied = static_cast<int>(applied);
  sinks_->emit({.kind = DecisionKind::kAttempt, .t = now, .vm = &vm->name(),
                .attempt = &ev});
  return applied != Remedy::kNone;
}

void PreventionActuator::fire(const std::string& vm, double now,
                              const std::string& action) {
  sinks_->emit({.kind = DecisionKind::kActionFired, .t = now, .vm = &vm,
                .action = &action});
  last_action_time_[vm] = now;
}

bool PreventionActuator::actuate(const Diagnosis::FaultyVm& faulty,
                                 double now) {
  if (validation_open(faulty.vm)) return false;
  Vm* vm = cluster_->find_vm(faulty.vm);
  PREPARE_CHECK_MSG(vm != nullptr, "unknown VM: " + faulty.vm);
  if (vm->migrating()) return false;

  for (std::size_t i = 0; i < faulty.ranked.size(); ++i) {
    const Attribute a = faulty.ranked[i];
    if (!apply_action(vm, a, now, PreventionPhase::kInitial)) continue;
    std::ostringstream detail;
    detail << "acted on " << attribute_name(a) << " (rank " << i << ")";
    fire(faulty.vm, now, detail.str());
    PendingValidation pv;
    pv.action_time = now;
    pv.acted = a;
    pv.ranked = faulty.ranked;
    pv.next_index = i + 1;
    pv.lookback_mean = lookback_mean(faulty.vm, a, now);
    // Also act on the next ranked metric of the *other* resource kind:
    // a saturating CPU is often the symptom of a memory root cause (or
    // vice versa), and a second scaling is far cheaper than a
    // failed-validation round trip. Applies in migration mode too — the
    // companion is always a scaling, which is harmless alongside a
    // migration (and essential when the migration had to fall back to
    // local scaling).
    if (config_.companion_scaling) {
      const MetricKind primary = metric_kind(a);
      for (std::size_t j = i + 1; j < faulty.ranked.size(); ++j) {
        const MetricKind other = metric_kind(faulty.ranked[j]);
        if (other == MetricKind::kOther || other == primary) continue;
        if (apply_action(vm, faulty.ranked[j], now,
                         PreventionPhase::kCompanion)) {
          fire(faulty.vm, now,
               "companion action on " + attribute_name(faulty.ranked[j]));
          pv.next_index = j + 1;
        }
        break;
      }
    }
    pending_[faulty.vm] = std::move(pv);
    return true;
  }
  sinks_->emit(
      {.kind = DecisionKind::kNoApplicableAction, .t = now, .vm = &faulty.vm});
  return false;
}

void PreventionActuator::on_sample(double now,
                                   const std::set<std::string>& unhealthy) {
  maybe_reclaim(now, unhealthy);
  for (auto it = pending_.begin(); it != pending_.end();) {
    const std::string& vm_name = it->first;
    PendingValidation& pv = it->second;
    if (now < pv.action_time + config_.validation_delay_s) {
      ++it;
      continue;
    }
    if (!config_.validation_enabled) {
      // Ablation mode: the record simply expires, successful or not.
      it = pending_.erase(it);
      continue;
    }
    if (unhealthy.count(vm_name) == 0) {
      sinks_->emit(
          {.kind = DecisionKind::kValidated, .t = now, .vm = &vm_name});
      it = pending_.erase(it);
      continue;
    }
    // Still unhealthy: did the acted metric respond at all?
    const auto ahead = store_->series(vm_name, pv.acted)
                           .mean_between(pv.action_time, now);
    const double before = pv.lookback_mean;
    const double after = ahead.value_or(before);
    const double denom = std::max(std::abs(before), 1e-6);
    const bool responded =
        std::abs(after - before) / denom >= config_.min_relative_change;
    sinks_->emit({.kind = DecisionKind::kValidationFailed, .t = now,
                  .vm = &vm_name, .metric = pv.acted,
                  .responded = responded});

    // Try the next ranked metric, skipping non-actionable ones.
    Vm* vm = cluster_->find_vm(vm_name);
    bool reacted = false;
    while (pv.next_index < pv.ranked.size()) {
      const Attribute next = pv.ranked[pv.next_index++];
      if (vm != nullptr && !vm->migrating() &&
          apply_action(vm, next, now, PreventionPhase::kFallback)) {
        fire(vm_name, now, "fallback action on " + attribute_name(next));
        pv.action_time = now;
        pv.acted = next;
        pv.lookback_mean = lookback_mean(vm_name, next, now);
        reacted = true;
        break;
      }
    }
    if (reacted) {
      ++it;
    } else {
      // Ranking exhausted: close the record so a later confirmed alert
      // can retry from the top (e.g. scale further as a leak keeps
      // growing).
      sinks_->emit(
          {.kind = DecisionKind::kRankingExhausted, .t = now, .vm = &vm_name});
      it = pending_.erase(it);
    }
  }
}

bool PreventionActuator::validation_open(const std::string& vm_name) const {
  return pending_.count(vm_name) != 0;
}

void PreventionActuator::maybe_reclaim(double now,
                                       const std::set<std::string>& unhealthy) {
  if (!config_.reclaim_enabled) return;
  for (const auto& [vm_name, base] : baseline_) {
    if (unhealthy.count(vm_name) != 0) continue;
    if (validation_open(vm_name)) continue;
    const auto last = last_action_time_.find(vm_name);
    if (last != last_action_time_.end() &&
        now - last->second < config_.reclaim_idle_s)
      continue;
    Vm* vm = cluster_->find_vm(vm_name);
    if (vm == nullptr || vm->migrating()) continue;
    if (store_->sample_count(vm_name) == 0) continue;

    const double window_start = now - config_.reclaim_idle_s;
    // Shrink a resource toward its baseline when its sustained
    // utilization is low.
    const auto reclaim = [&](MetricKind kind) {
      const bool cpu = kind == MetricKind::kCpu;
      const double baseline = cpu ? base.first : base.second;
      const double alloc = cpu ? vm->cpu_alloc() : vm->mem_alloc();
      if (alloc <= baseline * 1.01) return;
      const auto util =
          store_->series(vm_name, cpu ? Attribute::kCpuUtil : Attribute::kMemUtil)
              .mean_between(window_start, now);
      const double idle_pct =
          cpu ? config_.reclaim_cpu_util_pct : config_.reclaim_mem_util_pct;
      if (!util || *util >= idle_pct) return;
      const double target = std::max(baseline, alloc * config_.reclaim_factor);
      const bool scaled = cpu ? hypervisor_->scale_cpu(vm, target)
                              : hypervisor_->scale_memory(vm, target);
      if (!scaled) return;
      sinks_->emit({.kind = DecisionKind::kReclaim, .t = now, .vm = &vm_name,
                    .metric = cpu ? Attribute::kCpuUtil : Attribute::kMemUtil});
      last_action_time_[vm_name] = now;
    };
    reclaim(MetricKind::kCpu);
    reclaim(MetricKind::kMemory);
  }
}

}  // namespace prepare
