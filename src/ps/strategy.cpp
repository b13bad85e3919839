#include "ps/strategy.hpp"

#include <utility>

#include "common/check.hpp"
#include "sched/fifo.hpp"

namespace prophet::ps {

namespace {

// The single source of truth for string <-> strategy: canonical CLI name,
// paper-style display label, and the factory. Presentation order.
struct RegistryEntry {
  const char* name;
  const char* label;
  StrategyConfig (*make)();
};

constexpr RegistryEntry kRegistry[] = {
    {"fifo", "MXNet (FIFO)", [] { return StrategyConfig::fifo(); }},
    {"p3", "P3", [] { return StrategyConfig::p3(); }},
    {"tictac", "TicTac", [] { return StrategyConfig::tictac(); }},
    {"mg-wfbp", "MG-WFBP", [] { return StrategyConfig::mg_wfbp(); }},
    {"bytescheduler", "ByteScheduler",
     [] { return StrategyConfig::bytescheduler(); }},
    {"bytescheduler-autotune", "ByteScheduler (autotune)",
     [] { return StrategyConfig::bytescheduler(Bytes::mib(4), true); }},
    {"prophet", "Prophet", [] { return StrategyConfig::prophet(); }},
};

// Historical spellings from_name() still accepts (name() reports
// "mxnet-fifo" for Kind::kFifo, so the registry round-trips).
constexpr std::pair<const char*, const char*> kAliases[] = {
    {"mxnet-fifo", "fifo"},
};

const RegistryEntry* find_entry(std::string_view name) {
  for (const auto& [alias, canonical] : kAliases) {
    if (name == alias) name = canonical;
  }
  for (const auto& entry : kRegistry) {
    if (name == entry.name) return &entry;
  }
  return nullptr;
}

}  // namespace

std::string StrategyConfig::name() const {
  switch (kind) {
    case Kind::kFifo: return "mxnet-fifo";
    case Kind::kP3: return "p3";
    case Kind::kTicTac: return "tictac";
    case Kind::kMgWfbp: return "mg-wfbp";
    case Kind::kByteScheduler:
      return bytescheduler_config.autotune ? "bytescheduler-autotune"
                                           : "bytescheduler";
    case Kind::kProphet: return "prophet";
  }
  return "?";
}

StrategyConfig StrategyConfig::fifo() {
  StrategyConfig s;
  s.kind = Kind::kFifo;
  return s;
}

StrategyConfig StrategyConfig::p3(Bytes partition) {
  StrategyConfig s;
  s.kind = Kind::kP3;
  s.p3_partition = partition;
  return s;
}

StrategyConfig StrategyConfig::tictac() {
  StrategyConfig s;
  s.kind = Kind::kTicTac;
  return s;
}

StrategyConfig StrategyConfig::mg_wfbp() {
  StrategyConfig s;
  s.kind = Kind::kMgWfbp;
  return s;
}

StrategyConfig StrategyConfig::bytescheduler(Bytes credit, bool autotune) {
  StrategyConfig s;
  s.kind = Kind::kByteScheduler;
  s.bytescheduler_config.credit_bytes = credit;
  s.bytescheduler_config.autotune = autotune;
  return s;
}

StrategyConfig StrategyConfig::prophet(core::ProphetConfig config) {
  StrategyConfig s;
  s.kind = Kind::kProphet;
  s.prophet_config = config;
  return s;
}

const std::vector<std::string>& StrategyConfig::known_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const auto& entry : kRegistry) out.emplace_back(entry.name);
    return out;
  }();
  return names;
}

std::optional<StrategyConfig> StrategyConfig::from_name(std::string_view name) {
  const RegistryEntry* entry = find_entry(name);
  if (entry == nullptr) return std::nullopt;
  return entry->make();
}

std::string StrategyConfig::display_label(std::string_view name) {
  const RegistryEntry* entry = find_entry(name);
  PROPHET_CHECK_MSG(entry != nullptr, "display_label on unknown strategy name");
  return entry->label;
}

std::unique_ptr<sched::CommScheduler> make_scheduler(
    const StrategyConfig& strategy, sched::TaskKind kind, std::size_t gradient_count,
    core::ProphetScheduler::BandwidthFn bandwidth_fn, const net::TcpCostModel& cost) {
  switch (strategy.kind) {
    case StrategyConfig::Kind::kFifo:
      return std::make_unique<sched::FifoScheduler>(kind);
    case StrategyConfig::Kind::kP3:
      return std::make_unique<sched::ByteSchedulerScheduler>(
          kind, sched::ByteSchedulerConfig::p3(strategy.p3_partition));
    case StrategyConfig::Kind::kTicTac:
      return std::make_unique<sched::ByteSchedulerScheduler>(
          kind, sched::ByteSchedulerConfig::tictac());
    case StrategyConfig::Kind::kMgWfbp:
      return std::make_unique<sched::MgWfbpScheduler>(kind);
    case StrategyConfig::Kind::kByteScheduler:
      return std::make_unique<sched::ByteSchedulerScheduler>(
          kind, strategy.bytescheduler_config);
    case StrategyConfig::Kind::kProphet:
      return std::make_unique<core::ProphetScheduler>(
          kind, gradient_count, std::move(bandwidth_fn), cost,
          strategy.prophet_config);
  }
  PROPHET_CHECK_MSG(false, "unknown strategy kind");
  __builtin_unreachable();
}

}  // namespace prophet::ps
