# Benchmark harness: one binary per paper table/figure (plus ablations and
# google-benchmark microbenchmarks). Built from the top-level list file so
# that ${CMAKE_BINARY_DIR}/bench contains ONLY runnable binaries:
#
#   for b in build/bench/*; do $b; done
#
# regenerates every experiment.

add_library(prophet_bench_common OBJECT bench/bench_common.cpp)
target_include_directories(prophet_bench_common PUBLIC ${CMAKE_SOURCE_DIR}/src ${CMAKE_SOURCE_DIR}/bench)
target_link_libraries(prophet_bench_common PUBLIC prophet_ps prophet_exec)

function(prophet_bench name)
  add_executable(${name} bench/${name}.cpp $<TARGET_OBJECTS:prophet_bench_common>)
  target_include_directories(${name} PRIVATE ${CMAKE_SOURCE_DIR}/src ${CMAKE_SOURCE_DIR}/bench)
  target_link_libraries(${name} PRIVATE
    prophet_allreduce prophet_cluster prophet_ps prophet_core prophet_sched
    prophet_metrics prophet_dnn prophet_net prophet_sim prophet_exec
    prophet_common prophet_warnings Threads::Threads)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

prophet_bench(fig02_motivation)
prophet_bench(fig03_overhead)
prophet_bench(fig04_stepwise)
prophet_bench(fig05_example)
prophet_bench(fig08_training_rate)
prophet_bench(fig09_gpu_util)
prophet_bench(fig10_net_throughput)
prophet_bench(fig11_transfer_times)
prophet_bench(fig12_scalability)
prophet_bench(fig13_runtime_overhead)
prophet_bench(table2_bandwidth)
prophet_bench(table3_batchsize)
prophet_bench(hetero_cluster)
prophet_bench(dynamics_sensitivity)
prophet_bench(ablation)
prophet_bench(extended_comparison)
prophet_bench(allreduce_comparison)
prophet_bench(fault_recovery)
prophet_bench(multijob)
prophet_bench(scale)

# Microbenchmarks (google-benchmark): engine and Algorithm 1 costs, printed
# to the console.
add_executable(micro_benchmarks bench/micro_benchmarks.cpp)
target_include_directories(micro_benchmarks PRIVATE ${CMAKE_SOURCE_DIR}/src)
target_link_libraries(micro_benchmarks PRIVATE
  prophet_ps prophet_core prophet_sched prophet_metrics prophet_dnn
  prophet_net prophet_sim prophet_common prophet_warnings
  benchmark::benchmark_main Threads::Threads)
set_target_properties(micro_benchmarks PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

# Fig. 11 pin: fig11_transfer_times is the only reader of the transfer log's
# per-gradient push summaries, so its CSV, regenerated in a fresh directory,
# must match the committed bench_results/fig11_transfer_times.csv byte for
# byte.
add_test(NAME bench_fig11_csv_pinned
         COMMAND ${CMAKE_COMMAND}
           -DBENCH=$<TARGET_FILE:fig11_transfer_times>
           -DCSV=fig11_transfer_times.csv
           -DWORKDIR=${CMAKE_BINARY_DIR}/fig11_pin
           -DEXPECTED=${CMAKE_SOURCE_DIR}/bench_results/fig11_transfer_times.csv
           -P ${CMAKE_SOURCE_DIR}/bench/pin_csv.cmake)

# Engine-scaling smoke: shrunk cells, verifies both rebalance modes finish,
# that the star cell's incremental arm replays the kFull simulation
# byte-identically (same final nanosecond + event count), and that the sweep
# executor's merged output is thread-count-independent. It writes into the
# build tree, so CI timing noise never churns a committed artifact: the
# tracked BENCH_scale.json is only rewritten by a full `scale` run.
add_test(NAME bench_scale_smoke
         COMMAND scale --smoke --out ${CMAKE_BINARY_DIR}/BENCH_scale_smoke.json)
# RUN_SERIAL: the ratchet consumes this test's timing ratios, so it must not
# share the machine with other tests under `ctest -j`.
set_tests_properties(bench_scale_smoke PROPERTIES TIMEOUT 600
  FIXTURES_SETUP scale_smoke_json RUN_SERIAL TRUE)

# Ratchet against the committed smoke baseline: each cell's deterministic
# counters (events, rebalances, settlements, rate-group lifecycle) must match
# it exactly, and the full/incremental CPU-time ratio, which is
# machine-paired, must stay above 0.9x baseline, so a drop means the
# incremental engine lost its fast path, not that CI was slow. Lives in
# tools/ but is registered here because it reuses prophet_bench_common's
# BenchJson reader.
add_executable(scale_ratchet tools/scale_ratchet.cpp $<TARGET_OBJECTS:prophet_bench_common>)
target_include_directories(scale_ratchet PRIVATE ${CMAKE_SOURCE_DIR}/src ${CMAKE_SOURCE_DIR}/bench)
target_link_libraries(scale_ratchet PRIVATE
  prophet_allreduce prophet_cluster prophet_ps prophet_core prophet_sched
  prophet_metrics prophet_dnn prophet_net prophet_sim prophet_exec
  prophet_common prophet_warnings Threads::Threads)
set_target_properties(scale_ratchet PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/tools)

# Sanitizer instrumentation inflates the two arms unevenly, so the paired
# ratio only means something in uninstrumented builds.
if(NOT PROPHET_SANITIZE AND NOT PROPHET_TSAN)
  add_test(NAME bench_scale_ratchet
           COMMAND scale_ratchet
             ${CMAKE_SOURCE_DIR}/bench_results/BENCH_scale_smoke_baseline.json
             ${CMAKE_BINARY_DIR}/BENCH_scale_smoke.json 0.9)
  set_tests_properties(bench_scale_ratchet PROPERTIES
    FIXTURES_REQUIRED scale_smoke_json)
endif()

# Fault-recovery smoke + ratchet: shrunk toy cells (including a 2-shard PS
# failover with partial rollback) write BENCH_fault_smoke.json, then the
# ratchet holds per-strategy recovery overheads and the schedule-repair
# advantage to the committed baseline. Every compared metric is *simulated*
# milliseconds — deterministic on any runner (and under sanitizers), so no
# RUN_SERIAL and no instrumentation guard.
add_test(NAME bench_fault_smoke
         COMMAND fault_recovery --smoke --out ${CMAKE_BINARY_DIR}/BENCH_fault_smoke.json)
set_tests_properties(bench_fault_smoke PROPERTIES TIMEOUT 600
  FIXTURES_SETUP fault_smoke_json)

add_executable(fault_ratchet tools/fault_ratchet.cpp $<TARGET_OBJECTS:prophet_bench_common>)
target_include_directories(fault_ratchet PRIVATE ${CMAKE_SOURCE_DIR}/src ${CMAKE_SOURCE_DIR}/bench)
target_link_libraries(fault_ratchet PRIVATE
  prophet_allreduce prophet_cluster prophet_ps prophet_core prophet_sched
  prophet_metrics prophet_dnn prophet_net prophet_sim prophet_exec
  prophet_common prophet_warnings Threads::Threads)
set_target_properties(fault_ratchet PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/tools)

add_test(NAME bench_fault_ratchet
         COMMAND fault_ratchet
           ${CMAKE_SOURCE_DIR}/bench_results/BENCH_fault_smoke_baseline.json
           ${CMAKE_BINARY_DIR}/BENCH_fault_smoke.json 5)
set_tests_properties(bench_fault_ratchet PROPERTIES
  FIXTURES_REQUIRED fault_smoke_json)
