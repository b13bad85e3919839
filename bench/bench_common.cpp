#include "bench_common.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "exec/executor.hpp"

namespace prophet::bench {

BenchJson::BenchJson(std::string path) : path_{std::move(path)} {
  std::ifstream in{path_};
  if (!in) return;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  // Tolerant scan of the subset we emit: "section": { "key": value, ... }.
  std::size_t pos = 0;
  std::string section;
  auto read_string = [&](std::size_t& p) -> std::string {
    const std::size_t open = text.find('"', p);
    if (open == std::string::npos) return {};
    const std::size_t close = text.find('"', open + 1);
    if (close == std::string::npos) return {};
    p = close + 1;
    return text.substr(open + 1, close - open - 1);
  };
  while (pos < text.size()) {
    const std::size_t quote = text.find('"', pos);
    if (quote == std::string::npos) break;
    std::size_t p = quote;
    const std::string name = read_string(p);
    std::size_t after = text.find_first_not_of(" \t\r\n", p);
    if (after == std::string::npos || text[after] != ':') {
      pos = p;
      continue;
    }
    after = text.find_first_not_of(" \t\r\n", after + 1);
    if (after == std::string::npos) break;
    if (text[after] == '{') {
      section = name;
      pos = after + 1;
    } else {
      char* end = nullptr;
      const double value = std::strtod(text.c_str() + after, &end);
      if (end != text.c_str() + after && !section.empty()) {
        sections_[section][name] = value;
      }
      pos = after + 1;
    }
  }
}

void BenchJson::set(const std::string& section, const std::string& key, double value) {
  sections_[section][key] = value;
}

double BenchJson::get(const std::string& section, const std::string& key) const {
  const auto sec = sections_.find(section);
  if (sec == sections_.end()) return std::nan("");
  const auto it = sec->second.find(key);
  return it == sec->second.end() ? std::nan("") : it->second;
}

std::vector<std::string> BenchJson::section_names() const {
  std::vector<std::string> names;
  names.reserve(sections_.size());
  for (const auto& [section, metrics] : sections_) names.push_back(section);
  return names;
}

void BenchJson::clear_section(const std::string& section) { sections_.erase(section); }

void BenchJson::save() const {
  std::ofstream out{path_};
  out << "{\n";
  bool first_section = true;
  for (const auto& [section, metrics] : sections_) {
    if (!first_section) out << ",\n";
    first_section = false;
    out << "  \"" << section << "\": {\n";
    bool first_key = true;
    for (const auto& [key, value] : metrics) {
      if (!first_key) out << ",\n";
      first_key = false;
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.6g", value);
      out << "    \"" << key << "\": " << buf;
    }
    out << "\n  }";
  }
  out << "\n}\n";
}

std::string artifact_dir() {
  const std::string dir = "bench_results";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return dir;
}

CsvWriter make_csv(const std::string& name, std::vector<std::string> header) {
  return CsvWriter{artifact_dir() + "/" + name + ".csv", std::move(header)};
}

void banner(const std::string& experiment, const std::string& description) {
  std::printf("\n================================================================\n");
  std::printf("%s\n%s\n", experiment.c_str(), description.c_str());
  std::printf("================================================================\n");
}

ps::ClusterConfig paper_cluster(const dnn::ModelSpec& model, int batch,
                                std::size_t workers, Bandwidth worker_bw,
                                ps::StrategyConfig strategy, std::size_t iterations) {
  ps::ClusterConfig cfg;
  cfg.model = model;
  cfg.batch = batch;
  cfg.num_workers = workers;
  cfg.topology = net::TopologySpec::star(worker_bw, Bandwidth::gbps(10));
  cfg.strategy = std::move(strategy);
  cfg.iterations = iterations;
  // Keep the profiling phase short relative to bench length; its cost is
  // measured explicitly by fig13_runtime_overhead.
  cfg.strategy.prophet_config.profile_iterations = 8;
  return cfg;
}

std::vector<Contender> all_contenders(bool bs_autotune) {
  // The paper's four contenders, resolved through the strategy registry so
  // names and display labels stay in one place.
  const std::vector<std::string> names = {
      "fifo", "p3", bs_autotune ? "bytescheduler-autotune" : "bytescheduler",
      "prophet"};
  std::vector<Contender> out;
  for (const auto& name : names) {
    const auto strategy = ps::StrategyConfig::from_name(name);
    out.push_back({ps::StrategyConfig::display_label(name), *strategy});
  }
  return out;
}

double measure_rate(const ps::ClusterConfig& config) {
  return ps::run_cluster(config).mean_rate();
}

std::vector<ps::ClusterResult> run_all(const std::vector<ps::ClusterConfig>& configs,
                                       std::optional<std::size_t> measure_first) {
  const std::function<ps::ClusterResult(const ps::ClusterConfig&)> runner =
      [measure_first](const ps::ClusterConfig& cfg) {
        return ps::run_cluster(cfg, measure_first);
      };
  return exec::parallel_map<ps::ClusterConfig, ps::ClusterResult>(configs, runner);
}

}  // namespace prophet::bench
