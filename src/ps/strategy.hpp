// Strategy selection: which communication scheduler a training run uses.
// Covers the paper's four contenders — default MXNet (FIFO), P3,
// ByteScheduler (fixed or auto-tuned credit) and Prophet — behind one
// uniform factory scheme plus a name registry (`from_name`/`known_names`)
// that CLIs and benches derive their strategy lists from.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/prophet_scheduler.hpp"
#include "net/cost_model.hpp"
#include "sched/bytescheduler.hpp"
#include "sched/mg_wfbp.hpp"
#include "sched/scheduler.hpp"

namespace prophet::ps {

struct StrategyConfig {
  enum class Kind {
    kFifo,           // default MXNet
    kP3,             // Jayarajan et al., MLSys'19
    kTicTac,         // Hashemi et al., MLSys'19 (related work, Sec. 6.1)
    kMgWfbp,         // Shi et al., INFOCOM'19 (related work, Sec. 6.2)
    kByteScheduler,  // Peng et al., SOSP'19
    kProphet,        // this paper
  };

  Kind kind = Kind::kProphet;
  // P3 partition size (paper Sec. 5.1: 4 MB).
  Bytes p3_partition = Bytes::mib(4);
  sched::ByteSchedulerConfig bytescheduler_config;
  core::ProphetConfig prophet_config;

  [[nodiscard]] std::string name() const;

  // --- factories (one per Kind, uniformly named after the strategy) -------
  static StrategyConfig fifo();
  static StrategyConfig p3(Bytes partition = Bytes::mib(4));
  static StrategyConfig tictac();
  static StrategyConfig mg_wfbp();
  static StrategyConfig bytescheduler(Bytes credit = Bytes::mib(4),
                                      bool autotune = false);
  static StrategyConfig prophet(core::ProphetConfig config = {});

  // --- registry ------------------------------------------------------------
  // Canonical names, in presentation order, that from_name() accepts. CLIs
  // build their usage text and benches their strategy loops from this list.
  static const std::vector<std::string>& known_names();
  // Parses a canonical name or historical alias ("mxnet-fifo" == "fifo");
  // nullopt for unknown names. from_name(s.name()) round-trips every Kind.
  static std::optional<StrategyConfig> from_name(std::string_view name);
  // Paper-style display label for a canonical name ("prophet" -> "Prophet").
  static std::string display_label(std::string_view name);
};

// Instantiates the scheduler for one worker direction. `bandwidth_fn` feeds
// Prophet's planner from the worker's bandwidth monitor; other strategies
// ignore it.
std::unique_ptr<sched::CommScheduler> make_scheduler(
    const StrategyConfig& strategy, sched::TaskKind kind, std::size_t gradient_count,
    core::ProphetScheduler::BandwidthFn bandwidth_fn, const net::TcpCostModel& cost);

}  // namespace prophet::ps
