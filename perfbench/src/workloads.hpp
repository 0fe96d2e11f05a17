// The benchmark's three workloads: input generation from one seed, the
// engine configuration each runs, and the serial goldens its output is
// checked against.  Generators and goldens come from the library's
// datasets/sim/harness modules; they are not measured.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/queries.hpp"
#include "runtime/stream_engine.hpp"

namespace perfbench {

/// Stock workload extras: the training prefix and the fixed shedding
/// command.  train_model() over the prefix is part of the workload's
/// set-up (it is system-side work a deployment pays before serving).
struct ShedSetup {
  espice::QueryDef query;
  std::size_t num_types = 0;
  std::size_t bin_size = 4;
  std::vector<espice::Event> train;
  espice::DropCommand command;
};

struct Workload {
  std::string name;
  /// The measured stream (data events only, seq = stream order).
  std::vector<espice::Event> events;
  /// Engine configuration without shedder factory and durability dir (both
  /// are attached per run: the factory needs the trained model, the WAL
  /// directory is fresh per run).  config.producers > 0 selects
  /// multi-producer ingestion (push_batch_concurrent).
  espice::StreamEngineConfig config;
  std::optional<ShedSetup> shed;
  std::size_t batch = 256;
  bool open_loop = false;
  bool durable = false;
  /// Durable workloads: checkpoint() after every this many pushed events.
  /// The stream is sized so the last checkpoint lies a fixed number of
  /// events before its end: the tail recovery replays.
  std::uint64_t checkpoint_every = 0;
  /// Every Nth ring enqueue carries a latency mark in the open-loop phase.
  std::size_t latency_sample_every = 64;
  /// Busy threads the workload runs (router/producers plus shards).
  std::size_t threads = 0;
};

/// Names accepted by make_workload(), in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Builds workload `name` from `seed`; nullopt for an unknown name.
std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed);

/// Shedder factory arming an EspiceShedder over `model` with `cmd`.
std::function<std::unique_ptr<espice::Shedder>(std::size_t)> shedder_factory(
    std::shared_ptr<const espice::UtilityModel> model,
    const espice::DropCommand& cmd);

/// Order-sensitive 64-bit checksum of an event stream (type, seq, ts,
/// value, aux): equal seeds must print equal checksums.
std::uint64_t stream_checksum(const std::vector<espice::Event>& events);

/// Exact equality of two match lists: same order, and per match the same
/// window, detection time and constituents (element, position and every
/// field of the bound event).
bool same_matches(const std::vector<espice::ComplexEvent>& a,
                  const std::vector<espice::ComplexEvent>& b);

}  // namespace perfbench
