#include "workloads.hpp"

#include <cstring>

#include "common/rng.hpp"
#include "core/espice_shedder.hpp"
#include "datasets/stock.hpp"
#include "sim/zipf.hpp"

namespace perfbench {

using namespace espice;

namespace {

// --- stock_q4_shed ----------------------------------------------------------
constexpr std::size_t kStockSymbols = 500;
constexpr std::size_t kStockTrain = 60'000;
constexpr std::size_t kStockEvents = 1'000'000;
constexpr std::size_t kQ4Window = 1500;
constexpr std::size_t kQ4Slide = 100;

// --- keyed_tumbling_durable / zipf_mp_overlap16 -----------------------------
constexpr std::size_t kKeys = 64;
constexpr std::size_t kSpan = 1024;
constexpr std::uint64_t kCheckpointEvery = 131'072;
constexpr std::uint64_t kCheckpoints = 16;
constexpr std::uint64_t kRecoveryTail = 98'304;
constexpr std::size_t kZipfEvents = 2'000'000;
constexpr double kZipfExponent = 1.2;

/// seq(rising; falling; rising) over any type, on count windows of kSpan
/// events opened every `slide` events.
ShardQuery rise_fall_rise(std::size_t slide) {
  ShardQuery q;
  q.pattern = make_sequence({element("up", TypeSet{}, DirectionFilter::kRising),
                             element("down", TypeSet{}, DirectionFilter::kFalling),
                             element("up2", TypeSet{}, DirectionFilter::kRising)});
  q.window.span_kind = WindowSpan::kCount;
  q.window.span_events = kSpan;
  q.window.open_kind = WindowOpen::kCountSlide;
  q.window.slide_events = slide;
  return q;
}

/// `n` events of kKeys uniformly drawn types (the key is the type), seq =
/// index, jittered timestamps, values uniform in [-1, 1].
std::vector<Event> uniform_stream(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Event> events;
  events.reserve(n);
  double ts = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    Event e;
    e.type = static_cast<EventTypeId>(rng.uniform_int(kKeys));
    e.seq = i;
    ts += rng.uniform(0.0, 0.01);
    e.ts = ts;
    e.value = rng.uniform(-1.0, 1.0);
    events.push_back(e);
  }
  return events;
}

Workload stock_q4_shed(std::uint64_t seed) {
  Workload w;
  w.name = "stock_q4_shed";
  TypeRegistry registry;
  StockConfig sc;
  sc.num_symbols = kStockSymbols;
  sc.seed = seed;
  StockGenerator gen(sc, registry);
  ShedSetup shed;
  shed.train = gen.generate(kStockTrain);
  w.events = gen.generate(kStockEvents);
  shed.query = make_q4(gen, kQ4Window, kQ4Slide);
  shed.num_types = registry.size();
  // One fixed command, literal (at-least-x) threshold rule: deterministic,
  // so the shed run has an exact serial golden.
  shed.command.active = true;
  shed.command.x = 100.0;
  shed.command.partitions = 1;
  w.config.shards = 1;
  w.config.query.pattern = shed.query.pattern;
  w.config.query.window = shed.query.window;
  w.config.query.selection = shed.query.selection;
  w.config.query.consumption = shed.query.consumption;
  w.config.query.max_matches_per_window = shed.query.max_matches_per_window;
  w.shed = std::move(shed);
  w.open_loop = true;
  w.threads = 2;
  return w;
}

Workload keyed_tumbling_durable(std::uint64_t seed) {
  Workload w;
  w.name = "keyed_tumbling_durable";
  w.events = uniform_stream(kCheckpoints * kCheckpointEvery + kRecoveryTail,
                            seed);
  w.config.shards = 2;
  w.config.query = rise_fall_rise(kSpan);  // tumbling: overlap 1
  DurabilityConfig d;
  d.fsync = durability::FsyncPolicy::kNone;
  w.config.durability = d;
  w.durable = true;
  w.checkpoint_every = kCheckpointEvery;
  w.open_loop = true;
  w.threads = 3;
  return w;
}

Workload zipf_mp_overlap16(std::uint64_t seed) {
  Workload w;
  w.name = "zipf_mp_overlap16";
  w.events = make_zipf_stream(kZipfEvents, kKeys, kZipfExponent, seed);
  w.config.shards = 2;
  w.config.producers = 2;
  w.config.query = rise_fall_rise(kSpan / 16);  // overlap 16
  w.threads = 4;
  return w;
}

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h * 0xff51afd7ed558ccdULL;
}

std::uint64_t bits(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

bool same_event(const Event& a, const Event& b) {
  return a.type == b.type && a.seq == b.seq && bits(a.ts) == bits(b.ts) &&
         bits(a.value) == bits(b.value) && bits(a.aux) == bits(b.aux);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {
      "stock_q4_shed", "keyed_tumbling_durable", "zipf_mp_overlap16"};
  return kNames;
}

std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed) {
  if (name == "stock_q4_shed") return stock_q4_shed(seed);
  if (name == "keyed_tumbling_durable") return keyed_tumbling_durable(seed);
  if (name == "zipf_mp_overlap16") return zipf_mp_overlap16(seed);
  return std::nullopt;
}

std::function<std::unique_ptr<Shedder>(std::size_t)> shedder_factory(
    std::shared_ptr<const UtilityModel> model, const DropCommand& cmd) {
  return [model = std::move(model), cmd](std::size_t) {
    auto s = std::make_unique<EspiceShedder>(model);
    s->on_command(cmd);
    return std::unique_ptr<Shedder>(std::move(s));
  };
}

std::uint64_t stream_checksum(const std::vector<Event>& events) {
  std::uint64_t h = 0x5eedULL;
  for (const Event& e : events) {
    h = mix(h, e.type);
    h = mix(h, e.seq);
    h = mix(h, bits(e.ts));
    h = mix(h, bits(e.value));
    h = mix(h, bits(e.aux));
  }
  return h;
}

bool same_matches(const std::vector<ComplexEvent>& a,
                  const std::vector<ComplexEvent>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const ComplexEvent& x = a[i];
    const ComplexEvent& y = b[i];
    if (x.window != y.window || bits(x.detection_ts) != bits(y.detection_ts) ||
        x.constituents.size() != y.constituents.size()) {
      return false;
    }
    for (std::size_t c = 0; c < x.constituents.size(); ++c) {
      const Constituent& p = x.constituents[c];
      const Constituent& q = y.constituents[c];
      if (p.element != q.element || p.position != q.position ||
          !same_event(p.event, q.event)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace perfbench
