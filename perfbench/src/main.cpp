// perfbench: runs one workload of the repository benchmark and prints its
// metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--rate <events/s>] [--work-dir <dir>]
//
// --trace 0, with no tracing: the process's first closed-loop pass gives
// peak memory (and warms up); then the workload's engine runs (closed loop,
// then recovery and the open loop where the workload has them) repeat for
// about --seconds.  Throughput counts every timed closed-loop pass as one
// long closed loop; latency is a median over the open-loop runs, set-up
// time the median of back-to-back set-ups.  --trace 1 runs each phase
// once with spans around every engine call on the router and producer
// threads, then replays one shard's substream single-threaded with spans
// around the window, shedder and matcher calls, and reports per-layer
// numbers.  Spans are kept in memory and written to
// <work-dir>/spans-<workload>-<seed>.jsonl at the end.
//
// Every engine output is compared with the serial golden; a failed or
// mismatching operation is counted, and any failure makes the process exit
// 1.  The last stdout line is "PERFBENCH_RESULT {json}" (perfbench/run.py
// turns it into the benchmark's result line).
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cep/incremental_matcher.hpp"
#include "measure.hpp"
#include "metrics/quality.hpp"
#include "runtime/shard_pipeline.hpp"
#include "sim/sharded_sim.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace espice;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- operations ledger -------------------------------------------------------

/// Attempted and failed operations (push, checkpoint, finish, recover).
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure reasons

  void record(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 8) failures.push_back(what);
    }
  }
  void merge(const Ledger& o) {
    attempted += o.attempted;
    failed += o.failed;
    for (const auto& f : o.failures) {
      if (failures.size() < 8) failures.push_back(f);
    }
  }
};

std::string health_text(const EngineHealth& h) {
  std::string s = std::string("state=") + engine_state_name(h.state) +
                  " wal_errors=" + std::to_string(h.wal_errors) +
                  " wal_degraded=" + (h.wal_degraded ? "1" : "0");
  if (!h.last_error.empty()) s += " last_error=\"" + h.last_error + "\"";
  for (const ShardHealth& sh : h.shards) {
    s += " shard" + std::to_string(sh.shard) +
         "{failed=" + (sh.failed ? "1" : "0") +
         " progress=" + std::to_string(sh.last_progress) +
         (sh.error.empty() ? "" : " error=\"" + sh.error + "\"") + "}";
  }
  return s;
}

// --- deadline ----------------------------------------------------------------

/// Per-engine-run deadline.  A run that is still going when its deadline
/// passes (a hang, e.g. a lost checkpoint handshake) is a failed run: the
/// watchdog prints the operation it was in and the engine's health, then
/// ends the process with exit code 3.  The watchdog thread sleeps on a
/// condition variable and does no work unless the deadline passes.
class Watchdog {
 public:
  Watchdog() : thread_([this] { loop(); }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// `health` is called from the watchdog thread only after the deadline
  /// passed, i.e. while the router thread is stuck inside an engine call;
  /// the snapshot it prints is best effort.
  void arm(double seconds, std::string op, std::function<std::string()> health) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      deadline_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(seconds));
      op_ = std::move(op);
      health_ = std::move(health);
      ++generation_;
      armed_ = true;
    }
    cv_.notify_all();
  }
  void set_op(std::string op) {
    std::lock_guard<std::mutex> lk(mu_);
    op_ = std::move(op);
  }
  void disarm() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      armed_ = false;
      health_ = nullptr;
      ++generation_;
    }
    cv_.notify_all();
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lk(mu_);
    while (!stop_) {
      if (!armed_) {
        cv_.wait(lk, [&] { return stop_ || armed_; });
        continue;
      }
      const std::uint64_t gen = generation_;
      if (cv_.wait_until(lk, deadline_,
                         [&] { return stop_ || generation_ != gen; })) {
        continue;
      }
      std::printf("DEADLINE: engine run passed its deadline during %s\n",
                  op_.c_str());
      std::printf("DEADLINE health: %s\n",
                  health_ ? health_().c_str() : "(no engine)");
      std::fflush(stdout);
      std::_Exit(3);
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  Clock::time_point deadline_;
  std::string op_;
  std::function<std::string()> health_;
  std::uint64_t generation_ = 0;
  bool armed_ = false;
  bool stop_ = false;
  std::thread thread_;  // last: starts after every member it uses
};

/// Deadline of one engine run.  Normal runs take well under two seconds.
constexpr double kRunDeadlineSeconds = 30.0;

// --- memory --------------------------------------------------------------------

/// A "VmHWM:"/"VmRSS:" field of /proc/self/status, in KiB (0 if absent).
double status_kib(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, len, key) == 0) return std::atof(line.c_str() + len);
  }
  return 0.0;
}

/// Resets the peak-RSS high-water mark to the current RSS.
bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool wrote = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && wrote;
}

std::uint64_t dir_bytes(const fs::path& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  if (!fs::exists(dir, ec)) return 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

// --- engine runs -------------------------------------------------------------

struct Context {
  const Workload& w;
  std::vector<ComplexEvent> golden;         ///< what every run must output
  std::vector<ComplexEvent> golden_noshed;  ///< stock: the unshed reference
  fs::path work_dir;
  double open_rate = 0.0;
  Watchdog& dog;
  Ledger ledger;
  std::uint64_t runs = 0;
  /// False until the goldens exist: finish() outputs are then checked by
  /// the caller once they do.
  bool golden_ready = false;
};

enum class Phase { kClosed, kOpen };

struct RunResult {
  bool ok = false;
  double setup_s = 0.0;
  double train_s = 0.0;
  double run_s = 0.0;  ///< first push -> return of finish()
  Clock::time_point finished;  ///< when finish() returned
  double finish_s = 0.0;
  double push_s = 0.0;  ///< wall time inside push calls (all producers)
  EngineReport report;
  std::vector<double> checkpoint_ms;
  std::vector<double> lateness_s;  ///< open loop: per batch
  fs::path wal_dir;
  std::uint64_t snapshot_bytes = 0;
};

/// Span names used on the router/producer threads.
struct EngineSpans {
  std::uint32_t run, push, checkpoint, finish, recover;
  explicit EngineSpans(Tracer& t)
      : run(t.intern("engine.run")),
        push(t.intern("runtime.push_batch")),
        checkpoint(t.intern("durability.checkpoint")),
        finish(t.intern("runtime.finish")),
        recover(t.intern("durability.recover_and_start")) {}
};

/// System-side set-up: train the model (stock), build the config, construct
/// and start the engine.  Input generation and goldens are not part of it.
std::unique_ptr<StreamEngine> setup_engine(Context& ctx, bool latency,
                                           RunResult& r) {
  const Workload& w = ctx.w;
  if (w.durable) {
    r.wal_dir = ctx.work_dir / ("wal-" + std::to_string(ctx.runs++));
    std::error_code ec;
    fs::remove_all(r.wal_dir, ec);
  }
  const auto t0 = Clock::now();
  StreamEngineConfig cfg = w.config;
  if (w.shed) {
    const auto tt = Clock::now();
    const TrainedModel tm = train_model(w.shed->query, w.shed->num_types,
                                        w.shed->train, w.shed->bin_size);
    r.train_s = since(tt);
    cfg.shedder_factory = shedder_factory(tm.model, w.shed->command);
  }
  if (w.durable) cfg.durability->dir = r.wal_dir.string();
  if (latency) cfg.latency_sample_every = w.latency_sample_every;
  auto engine = std::make_unique<StreamEngine>(cfg);
  engine->start();
  r.setup_s = since(t0);
  return engine;
}

/// Finishes `engine`, checks its output against the golden and records the
/// finish operation.
void finish_and_check(Context& ctx, StreamEngine& engine, RunResult& r,
                      Tracer* tr, const EngineSpans* sp) {
  const auto tf = Clock::now();
  if (tr) tr->begin(sp->finish);
  bool ok = true;
  std::string why = "finish";
  try {
    r.report = engine.finish();
  } catch (const std::exception& e) {
    ok = false;
    why = std::string("finish threw: ") + e.what() + " [" +
          health_text(engine.health()) + "]";
  }
  if (tr) tr->end();
  r.finished = Clock::now();
  r.finish_s = std::chrono::duration<double>(r.finished - tf).count();
  if (ok && r.report.health.state != EngineState::kRunning) {
    ok = false;
    why = "finish: health " + health_text(r.report.health);
  }
  if (ok && ctx.golden_ready && !same_matches(r.report.matches, ctx.golden)) {
    ok = false;
    why = "finish: output differs from the serial golden (" +
          std::to_string(r.report.matches.size()) + " vs " +
          std::to_string(ctx.golden.size()) + " matches)";
  }
  ctx.ledger.record(ok, why);
  r.ok = ok;
}

/// One single-router engine run over the whole stream: closed loop (push as
/// fast as the engine accepts) or open loop (batch i due at i*batch/rate).
/// Durable workloads checkpoint every checkpoint_every events.
RunResult run_router(Context& ctx, Phase phase, Tracer* tr) {
  const Workload& w = ctx.w;
  RunResult r;
  auto engine = setup_engine(ctx, phase == Phase::kOpen, r);
  StreamEngine* eng = engine.get();
  ctx.dog.arm(kRunDeadlineSeconds,
              phase == Phase::kOpen ? "open-loop run" : "closed-loop run",
              [eng] { return health_text(eng->health()); });
  std::optional<EngineSpans> sp;
  if (tr) sp.emplace(*tr);
  if (tr) tr->begin(sp->run);
  const OpenLoopSchedule sched(phase == Phase::kOpen ? ctx.open_rate : 1.0,
                               w.batch);
  const std::span<const Event> all(w.events);
  bool ok = true;
  std::uint64_t since_cp = 0;
  const auto t1 = Clock::now();
  std::uint64_t bi = 0;
  for (std::size_t off = 0; off < all.size(); off += w.batch, ++bi) {
    if (phase == Phase::kOpen) {
      const auto due = t1 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(sched.due_s(bi)));
      while (Clock::now() < due) std::this_thread::yield();
      r.lateness_s.push_back(sched.lateness_s(bi, since(t1)));
    }
    const std::size_t len = std::min(w.batch, all.size() - off);
    const auto tp = Clock::now();
    if (tr) tr->begin(sp->push);
    bool op_ok = true;
    std::string why;
    try {
      eng->push_batch(all.subspan(off, len));
      op_ok = eng->state() == EngineState::kRunning;
      if (!op_ok) why = "push_batch: health " + health_text(eng->health());
    } catch (const std::exception& e) {
      op_ok = false;
      why = std::string("push_batch threw: ") + e.what();
    }
    if (tr) tr->end();
    r.push_s += since(tp);
    ctx.ledger.record(op_ok, why);
    if (!op_ok) {
      ok = false;
      break;
    }
    since_cp += len;
    if (w.durable && since_cp >= w.checkpoint_every) {
      since_cp = 0;
      const auto tc = Clock::now();
      ctx.dog.set_op("checkpoint() at offset " + std::to_string(off + len));
      if (tr) tr->begin(sp->checkpoint);
      try {
        eng->checkpoint();
        op_ok = eng->health().state == EngineState::kRunning;
        if (!op_ok) why = "checkpoint: health " + health_text(eng->health());
      } catch (const std::exception& e) {
        op_ok = false;
        why = std::string("checkpoint threw: ") + e.what();
      }
      if (tr) tr->end();
      r.checkpoint_ms.push_back(since(tc) * 1e3);
      ctx.dog.set_op(phase == Phase::kOpen ? "open-loop run"
                                           : "closed-loop run");
      ctx.ledger.record(op_ok, why);
      if (!op_ok) {
        ok = false;
        break;
      }
    }
  }
  if (ok) {
    ctx.dog.set_op("finish()");
    finish_and_check(ctx, *eng, r, tr, sp ? &*sp : nullptr);
  } else {
    eng->abort();
  }
  r.run_s = std::chrono::duration<double>(r.finished - t1).count();
  if (tr) tr->end();
  ctx.dog.disarm();
  if (w.durable) r.snapshot_bytes = dir_bytes(r.wal_dir / "snapshots");
  r.ok = r.ok && ok;
  return r;
}

/// Multi-producer closed loop: producer p pushes chunks p, p+P, ... (its
/// sequence numbers strictly increase); producer 0 runs on this thread.
RunResult run_producers(Context& ctx, Tracer* tr, Tracer* tr1) {
  const Workload& w = ctx.w;
  RunResult r;
  auto engine = setup_engine(ctx, false, r);
  StreamEngine* eng = engine.get();
  ctx.dog.arm(kRunDeadlineSeconds, "multi-producer closed-loop run",
              [eng] { return health_text(eng->health()); });
  std::optional<EngineSpans> sp;
  if (tr) sp.emplace(*tr);
  if (tr) tr->begin(sp->run);
  const std::span<const Event> all(w.events);
  const std::size_t P = w.config.producers;
  std::vector<Ledger> ledgers(P);
  std::vector<double> push_s(P, 0.0);
  std::atomic<bool> stop{false};
  auto produce = [&](std::size_t p, Tracer* t) {
    std::optional<EngineSpans> psp;
    if (t) psp.emplace(*t);
    for (std::size_t c = p; c * w.batch < all.size() && !stop.load(); c += P) {
      const std::size_t off = c * w.batch;
      const auto tp = Clock::now();
      if (t) t->begin(psp->push);
      bool ok = true;
      std::string why;
      try {
        eng->push_batch_concurrent(
            p, all.subspan(off, std::min(w.batch, all.size() - off)));
      } catch (const std::exception& e) {
        ok = false;
        why = std::string("push_batch_concurrent threw: ") + e.what();
      }
      if (t) t->end();
      push_s[p] += since(tp);
      ledgers[p].record(ok, why);
      if (!ok) {
        stop.store(true);
        break;
      }
    }
    eng->producer_done(p);
  };
  const auto t1 = Clock::now();
  {
    std::vector<std::thread> others;
    for (std::size_t p = 1; p < P; ++p) {
      others.emplace_back(produce, p, p == 1 ? tr1 : nullptr);
    }
    produce(0, tr);
    for (auto& t : others) t.join();
  }
  bool ok = true;
  for (const Ledger& l : ledgers) {
    ctx.ledger.merge(l);
    ok = ok && l.failed == 0;
  }
  for (double s : push_s) r.push_s += s;
  if (ok && eng->health().state != EngineState::kRunning) {
    ok = false;
    ctx.ledger.record(false, "producers: health " + health_text(eng->health()));
  }
  if (ok) {
    ctx.dog.set_op("finish()");
    finish_and_check(ctx, *eng, r, tr, sp ? &*sp : nullptr);
  } else {
    eng->abort();
  }
  r.run_s = std::chrono::duration<double>(r.finished - t1).count();
  if (tr) tr->end();
  ctx.dog.disarm();
  r.ok = r.ok && ok;
  return r;
}

RunResult run_closed(Context& ctx, Tracer* tr, Tracer* tr1) {
  return ctx.w.config.producers > 0 ? run_producers(ctx, tr, tr1)
                             : run_router(ctx, Phase::kClosed, tr);
}

struct RecoveryResult {
  bool ok = false;
  double seconds = 0.0;  ///< recover_and_start() + finish()
  double recover_s = 0.0;
  RecoveryReport report;
};

/// Recovers a fresh engine from `dir` -- the image a closed-loop run left
/// behind: its full log, and its last snapshot a fixed tail of events
/// before the end -- and finishes it; the output must equal the golden.
RecoveryResult run_recovery(Context& ctx, const fs::path& dir, Tracer* tr) {
  RecoveryResult out;
  StreamEngineConfig cfg = ctx.w.config;
  cfg.durability->dir = dir.string();
  std::optional<EngineSpans> sp;
  if (tr) sp.emplace(*tr);
  const auto t0 = Clock::now();
  StreamEngine engine(cfg);
  ctx.dog.arm(kRunDeadlineSeconds, "recover_and_start()",
              [&engine] { return health_text(engine.health()); });
  if (tr) tr->begin(sp->run);
  if (tr) tr->begin(sp->recover);
  bool ok = true;
  std::string why;
  try {
    out.report = engine.recover_and_start();
    ok = engine.health().state == EngineState::kRunning &&
         out.report.durable_events == ctx.w.events.size();
    if (!ok) {
      why = "recover_and_start: durable " +
            std::to_string(out.report.durable_events) + " events, health " +
            health_text(engine.health());
    }
  } catch (const std::exception& e) {
    ok = false;
    why = std::string("recover_and_start threw: ") + e.what();
  }
  if (tr) tr->end();
  out.recover_s = since(t0);
  ctx.ledger.record(ok, why);
  RunResult r;
  if (ok) {
    ctx.dog.set_op("finish() after recovery");
    finish_and_check(ctx, engine, r, tr, sp ? &*sp : nullptr);
    ok = r.ok;
  } else {
    engine.abort();
  }
  out.seconds = since(t0);
  if (tr) tr->end();
  ctx.dog.disarm();
  out.ok = ok;
  return out;
}

// --- single-threaded shard replay -------------------------------------------

/// The engine's per-shard output: the merged matches whose events belong to
/// shard `s`, in canonical order.
std::vector<ComplexEvent> shard_matches(const std::vector<ComplexEvent>& all,
                                        std::size_t s, std::size_t shards) {
  std::vector<ComplexEvent> out;
  for (const ComplexEvent& m : all) {
    if (StreamEngine::shard_index(m.constituents.front().event.type, shards) ==
        s) {
      out.push_back(m);
    }
  }
  return out;
}

/// KeptFeed that records the window manager's feed calls so the matcher
/// receives them, in the same order, inside the matcher's own span -- after
/// the block's window calls and before the block's windows are finalized,
/// which is when the engine's pipeline has delivered them too.
class RecordingFeed final : public KeptFeed {
 public:
  void on_event_kept(const Event& e, std::uint64_t offer_index,
                     QueryMask uniform, QueryMask partial) override {
    calls_.push_back({e, offer_index, uniform, partial, false});
  }
  void on_window_open(std::uint64_t open_index) override {
    calls_.push_back({Event{}, open_index, 0, 0, true});
  }
  void deliver(MatcherFeed& feed) {
    for (const Call& c : calls_) {
      if (c.open) {
        feed.on_window_open(c.index);
      } else {
        feed.on_event_kept(c.e, c.index, c.uniform, c.partial);
      }
    }
    calls_.clear();
  }

 private:
  struct Call {
    Event e;
    std::uint64_t index;
    QueryMask uniform;
    QueryMask partial;
    bool open;
  };
  std::vector<Call> calls_;
};

struct ReplayResult {
  std::vector<ComplexEvent> matches;
  double wall_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t memberships = 0;
  std::uint64_t kept = 0;               ///< memberships kept
  std::uint64_t events_timed = 0;       ///< events inside window spans
  std::uint64_t memberships_timed = 0;  ///< memberships inside shedder spans
};

/// When a shedder splits each event's work between window and shedder
/// calls, one block in kFineEvery times every score_block call as a child
/// span of the block's window loop; the other blocks time the loop as one
/// span covering both layers (the split is taken from the fine blocks).
constexpr std::size_t kFineEvery = 16;
constexpr std::size_t kReplayBlock = 256;

/// Replays `sub` through WindowManager, the shedder's score_block and the
/// IncrementalMatcher the way DetPipeline composes them for one query, with
/// spans around each layer's calls.
ReplayResult replay_traced(const ShardQuery& q, std::unique_ptr<Shedder> shedder,
                           std::span<const Event> sub, Tracer& tr) {
  const std::uint32_t n_block = tr.intern("replay.block");
  const std::uint32_t n_window = tr.intern("cep.window.offer_keep");
  const std::uint32_t n_mixed = tr.intern("replay.window_and_shedder");
  const std::uint32_t n_drain = tr.intern("cep.window.drain");
  const std::uint32_t n_score = tr.intern("core.shedder.score_block");
  const std::uint32_t n_match = tr.intern("cep.matcher");
  ReplayResult r;
  WindowManager wm(q.window);
  IncrementalMatcher matcher(q.pattern, q.selection, q.consumption,
                             q.max_matches_per_window);
  MatcherFeed feed(&matcher);
  RecordingFeed recorder;
  if (matcher.stream_incremental() && windows_can_overlap(q.window)) {
    wm.set_kept_feed(&recorder);
  }
  const double predicted_ws = static_cast<double>(q.window.span_events);
  std::vector<std::uint32_t> pos;
  std::vector<std::uint64_t> bits;
  auto match_closed = [&] {
    tr.begin(n_drain);
    const std::vector<WindowView>& closed = wm.drain_closed();
    tr.end();
    tr.begin(n_match);
    recorder.deliver(feed);
    for (const WindowView& v : closed) matcher.finalize(v, r.matches);
    tr.end();
  };
  const auto t0 = Clock::now();
  std::size_t bi = 0;
  for (std::size_t off = 0; off < sub.size(); off += kReplayBlock, ++bi) {
    const auto block = sub.subspan(off, std::min(kReplayBlock, sub.size() - off));
    tr.begin(n_block);
    r.events += block.size();
    if (shedder == nullptr) {
      tr.begin(n_window);
      const std::uint64_t kept = wm.offer_keep_all_block(block);
      tr.end();
      r.memberships += kept;
      r.kept += kept;
      r.events_timed += block.size();
    } else {
      const bool fine = bi % kFineEvery == 0;
      tr.begin(fine ? n_window : n_mixed);
      for (const Event& e : block) {
        auto& ms = wm.offer(e);
        const std::size_t n = ms.size();
        r.memberships += n;
        if (fine) {
          ++r.events_timed;
          r.memberships_timed += n;
        }
        if (n == 0) continue;
        pos.resize(n);
        for (std::size_t i = 0; i < n; ++i) pos[i] = ms[i].position;
        bits.resize(keep_bitmap_words(n));
        if (fine) tr.begin(n_score);
        shedder->score_block(e, pos.data(), n, predicted_ws, bits.data());
        if (fine) tr.end();
        for (std::size_t i = 0; i < n; ++i) {
          if (keep_bit(bits.data(), i)) {
            wm.keep(ms[i], e);
            ++r.kept;
          }
        }
      }
      tr.end();
    }
    match_closed();
    tr.end();
  }
  tr.begin(n_block);
  wm.close_all();
  match_closed();
  tr.end();
  r.wall_s = since(t0);
  return r;
}

/// The untraced single-threaded baseline: the same substream through
/// DetPipeline::process_data_block, the shard thread's pipeline.
struct SerialResult {
  std::vector<ComplexEvent> matches;
  double seconds = 0.0;
};

SerialResult run_serial(const std::vector<EngineQuery>& queries,
                        std::unique_ptr<Shedder> shedder,
                        std::span<const Event> sub) {
  std::vector<std::unique_ptr<Shedder>> shedders;
  shedders.push_back(std::move(shedder));
  const auto t0 = Clock::now();
  DetPipeline pipe(queries, std::move(shedders), nullptr);
  ShardStats stats;
  for (std::size_t off = 0; off < sub.size(); off += kReplayBlock) {
    pipe.process_data_block(
        sub.subspan(off, std::min(kReplayBlock, sub.size() - off)), stats);
  }
  pipe.close_all(stats);
  SerialResult out;
  out.seconds = since(t0);
  out.matches = std::move(pipe.query_matches[0]);
  return out;
}

// --- WAL append pass ------------------------------------------------------------

struct WalResult {
  double seconds = 0.0;
  std::uint64_t bytes = 0;
};

/// Appends the stream to a fresh event log in the workload's batches, with
/// the workload's fsync policy -- the WAL layer through its public calls.
WalResult run_wal_pass(Context& ctx, Tracer& tr) {
  const std::uint32_t n_append = tr.intern("durability.wal.append_batch");
  const fs::path dir = ctx.work_dir / ("walpass-" + std::to_string(ctx.runs++));
  std::error_code ec;
  fs::remove_all(dir, ec);
  durability::EventLogConfig lc;
  lc.dir = dir.string();
  lc.fsync = ctx.w.config.durability->fsync;
  lc.segment_bytes = ctx.w.config.durability->segment_bytes;
  WalResult out;
  {
    durability::EventLogWriter log(lc);
    const std::span<const Event> all(ctx.w.events);
    const auto t0 = Clock::now();
    for (std::size_t off = 0; off < all.size(); off += ctx.w.batch) {
      tr.begin(n_append);
      log.append_batch(all.subspan(off, std::min(ctx.w.batch, all.size() - off)));
      tr.end();
    }
    out.seconds = since(t0);
  }
  out.bytes = dir_bytes(dir);
  fs::remove_all(dir, ec);
  return out;
}

// --- reporting -------------------------------------------------------------------

struct ShardGauges {
  double busy_fraction_max = 0.0;
  double events_max_over_mean = 0.0;
  double mean_depth = 0.0;
  double peak_depth = 0.0;
  std::size_t hottest = 0;
};

ShardGauges gauges(const EngineReport& rep) {
  ShardGauges g;
  std::uint64_t max_events = 0, sum_events = 0, depth_samples = 0;
  double depth_sum = 0.0;
  for (const ShardStats& s : rep.shards) {
    if (rep.wall_seconds > 0.0) {
      g.busy_fraction_max =
          std::max(g.busy_fraction_max, s.busy_seconds / rep.wall_seconds);
    }
    if (s.events > max_events) {
      max_events = s.events;
      g.hottest = s.shard;
    }
    sum_events += s.events;
    depth_sum += static_cast<double>(s.depth_sum);
    depth_samples += s.depth_samples;
    g.peak_depth = std::max(g.peak_depth, static_cast<double>(s.peak_queue_depth));
  }
  if (sum_events > 0) {
    g.events_max_over_mean = static_cast<double>(max_events) *
                             static_cast<double>(rep.shards.size()) /
                             static_cast<double>(sum_events);
  }
  if (depth_samples > 0) g.mean_depth = depth_sum / static_cast<double>(depth_samples);
  return g;
}

double pct_us(const LatencyHistogram& h, double q) {
  return static_cast<double>(h.quantile(q)) / 1e3;
}

void print_latency(const char* label, const LatencyHistogram& h) {
  std::printf(
      "%s latency: %llu samples, p50 %.1f us, p99 %.1f us (%llu samples "
      "beyond p99%s), max %.1f us\n",
      label, static_cast<unsigned long long>(h.count()), pct_us(h, 0.5),
      pct_us(h, 0.99),
      static_cast<unsigned long long>(samples_beyond(h.count(), 0.99)),
      percentile_supported(h.count(), 0.99) ? "" : ": p99 not supported",
      static_cast<double>(h.max()) / 1e3);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double rate = 0.0;
  std::string work_dir = ".bench_out";
};

/// Goldens: once per process, outside every timed region.
void compute_goldens(Context& ctx) {
  const Workload& w = ctx.w;
  const auto t0 = Clock::now();
  StreamEngineConfig cfg = w.config;
  cfg.durability.reset();
  cfg.producers = 0;
  ctx.golden_noshed = partitioned_serial_golden(cfg, w.events);
  if (w.shed) {
    const TrainedModel tm = train_model(w.shed->query, w.shed->num_types,
                                        w.shed->train, w.shed->bin_size);
    cfg.shedder_factory = shedder_factory(tm.model, w.shed->command);
    ctx.golden = partitioned_serial_golden(cfg, w.events);
  } else {
    ctx.golden = ctx.golden_noshed;
  }
  ctx.golden_ready = true;
  std::printf("golden: %zu matches (%zu unshed), computed in %.2f s\n",
              ctx.golden.size(), ctx.golden_noshed.size(), since(t0));
}

/// Untraced repetitions after the first pass: end-to-end metrics.  Stops
/// at the first failed run (the failure is in the ledger).
void measure_untraced(Context& ctx, const Options& opt, MetricSet& m) {
  const Workload& w = ctx.w;
  constexpr std::size_t kMinReps = 3, kMaxReps = 400, kSetups = 25;
  // Set-up time: back-to-back set-ups (set up, then tear down) before the
  // timed passes, so no run's I/O or teardown is still settling.
  std::vector<double> setups;
  for (std::size_t i = 0; i < kSetups && ctx.ledger.failed == 0; ++i) {
    RunResult probe;
    auto engine = setup_engine(ctx, false, probe);
    setups.push_back(probe.setup_s);
    engine->abort();
    std::error_code ec;
    if (w.durable) fs::remove_all(probe.wal_dir, ec);
  }
  std::vector<double> p50, p99, rec_s;
  double events = 0.0, run_s = 0.0;
  std::size_t passes = 0;
  const auto t_start = Clock::now();
  for (std::size_t rep = 0; rep < kMaxReps; ++rep) {
    const auto t_rep = Clock::now();
    RunResult c = run_closed(ctx, nullptr, nullptr);
    if (!c.ok) break;
    ++passes;
    events += static_cast<double>(w.events.size());
    run_s += c.run_s;
    if (w.shed && passes == 1) {
      // Deterministic: every pass's output equals the shed golden.
      const QualityReport q = compare_quality(ctx.golden_noshed, c.report.matches);
      m.set("fn_pct", q.fn_percent(), "%");
      m.set("fp_pct", q.fp_percent(), "%");
    }
    if (w.durable) {
      const RecoveryResult rr = run_recovery(ctx, c.wal_dir, nullptr);
      std::error_code ec;
      fs::remove_all(c.wal_dir, ec);
      if (!rr.ok) break;
      rec_s.push_back(rr.seconds);
    }
    if (w.open_loop) {
      RunResult o = run_router(ctx, Phase::kOpen, nullptr);
      std::error_code ec;
      if (w.durable) fs::remove_all(o.wal_dir, ec);
      if (!o.ok) break;
      p50.push_back(pct_us(o.report.latency, 0.50));
      p99.push_back(pct_us(o.report.latency, 0.99));
      if (rep == 0) print_latency("open-loop", o.report.latency);
    }
    const double rep_s = since(t_rep);
    std::printf("rep %zu: %.0f events/s, setup %.6f s, rep %.2f s\n", rep,
                static_cast<double>(w.events.size()) / c.run_s, c.setup_s,
                rep_s);
    if (rep + 1 >= kMinReps && since(t_start) + rep_s > opt.seconds) break;
  }
  std::printf("%zu timed closed-loop runs, %zu set-up samples\n", passes,
              setups.size());
  // All passes as one long closed loop: a ratio of sums does not jump
  // between the modes that single passes fall into.
  if (run_s > 0.0) m.set("throughput_eps", events / run_s, "events/s");
  if (!setups.empty()) m.set("setup_s", median(setups), "s");
  if (w.open_loop) {
    m.set("latency_p50_us", median(p50), "us");
    m.set("latency_p99_us", median(p99), "us");
  }
  if (w.durable) m.set("recovery_s", median(rec_s), "s");
}

/// One traced pass over every phase plus the shard replay: per-layer
/// metrics.  Spans go to `spans_path`.
void measure_traced(Context& ctx, const Options& opt, MetricSet& m,
                    const fs::path& spans_path) {
  const Workload& w = ctx.w;
  const auto t_start = Clock::now();
  const auto epoch = Clock::now();
  Tracer router(epoch), producer1(epoch), replay(epoch), wal(epoch);
  const double n_events = static_cast<double>(w.events.size());

  // An untraced warm-up pass, as in the untraced mode.
  {
    RunResult warm = run_closed(ctx, nullptr, nullptr);
    std::error_code ec;
    if (w.durable) fs::remove_all(warm.wal_dir, ec);
    if (!warm.ok) return;
  }

  // Trace 1: closed loop.
  router.set_trace(1);
  producer1.set_trace(1);
  RunResult c = run_closed(ctx, &router, &producer1);
  if (!c.ok) return;
  const ShardGauges gc = gauges(c.report);
  m.set("throughput_eps", n_events / c.run_s, "events/s");
  m.set("setup_s", c.setup_s, "s");
  m.set("runtime.router.stall_s", c.report.router_stall_seconds, "s");
  m.set("runtime.shard.busy_fraction_max", gc.busy_fraction_max, "ratio");
  m.set("runtime.shard.events_max_over_mean", gc.events_max_over_mean, "ratio");
  m.set("runtime.finish_s", c.finish_s, "s");
  m.set("runtime.router.push_ns_per_event",
        std::max(0.0, c.push_s - c.report.router_stall_seconds) / n_events * 1e9,
        "ns");
  if (w.config.producers > 0) {
    m.set("runtime.lanes.push_ns_per_event", c.push_s / n_events * 1e9, "ns");
  }
  if (w.shed) {
    m.set("core.model.train_s", c.train_s, "s");
    const std::uint64_t dec = c.report.queries[0].shed_decisions;
    m.set("core.shedder.drop_ratio",
          dec == 0 ? 0.0
                   : static_cast<double>(c.report.queries[0].shed_drops) /
                         static_cast<double>(dec),
          "ratio");
    const QualityReport q = compare_quality(ctx.golden_noshed, c.report.matches);
    m.set("fn_pct", q.fn_percent(), "%");
    m.set("fp_pct", q.fp_percent(), "%");
  }
  std::vector<double> pauses = c.checkpoint_ms;

  // Trace 3: recovery from the closed-loop run's image.
  if (w.durable) {
    m.set("durability.snapshot.bytes", static_cast<double>(c.snapshot_bytes),
          "bytes");
    router.set_trace(3);
    const RecoveryResult rr = run_recovery(ctx, c.wal_dir, &router);
    std::error_code ec;
    fs::remove_all(c.wal_dir, ec);
    if (!rr.ok) return;
    m.set("recovery_s", rr.seconds, "s");
    m.set("durability.recovery.replayed_events",
          static_cast<double>(rr.report.replayed_events), "events");
    m.set("durability.recovery.replay_eps",
          static_cast<double>(rr.report.replayed_events) / rr.recover_s,
          "events/s");
  }

  // Trace 2: open loop.
  if (w.open_loop) {
    router.set_trace(2);
    RunResult o = run_router(ctx, Phase::kOpen, &router);
    std::error_code ec;
    if (w.durable) fs::remove_all(o.wal_dir, ec);
    if (!o.ok) return;
    const ShardGauges go = gauges(o.report);
    m.set("runtime.ring.mean_depth", go.mean_depth, "events");
    m.set("runtime.ring.peak_depth", go.peak_depth, "events");
    m.set("latency_p50_us", pct_us(o.report.latency, 0.50), "us");
    m.set("latency_p99_us", pct_us(o.report.latency, 0.99), "us");
    print_latency("open-loop", o.report.latency);
    std::vector<double> lag_us;
    lag_us.reserve(o.lateness_s.size());
    for (double s : o.lateness_s) lag_us.push_back(s * 1e6);
    m.set("gen.lag_p99_us", quantile(lag_us, 0.99), "us");
    m.set("gen.lag_max_us", quantile(lag_us, 1.0), "us");
    pauses.insert(pauses.end(), o.checkpoint_ms.begin(), o.checkpoint_ms.end());
  } else {
    m.set("runtime.ring.mean_depth", gc.mean_depth, "events");
    m.set("runtime.ring.peak_depth", gc.peak_depth, "events");
  }
  if (w.durable) {
    m.set("durability.checkpoint.pause_ms_p50", median(pauses), "ms");
    m.set("durability.checkpoint.pause_ms_max", quantile(pauses, 1.0), "ms");
  }

  // Trace 4: single-threaded replay of the busiest shard's substream,
  // alternating with the untraced DetPipeline baseline.
  const std::size_t K = w.config.shards;
  const std::size_t shard = gc.hottest;
  std::vector<Event> sub;
  for (const Event& e : w.events) {
    if (StreamEngine::shard_index(e.type, K) == shard) sub.push_back(e);
  }
  const std::vector<ComplexEvent> engine_shard =
      shard_matches(c.report.matches, shard, K);
  std::shared_ptr<const UtilityModel> model;
  if (w.shed) {
    model = train_model(w.shed->query, w.shed->num_types, w.shed->train,
                        w.shed->bin_size)
                .model;
  }
  auto make_shedder = [&]() -> std::unique_ptr<Shedder> {
    return model ? shedder_factory(model, w.shed->command)(shard) : nullptr;
  };
  std::vector<EngineQuery> queries(1);
  queries[0].query = w.config.query;
  replay.set_trace(4);
  std::vector<double> traced_s, serial_s, win_ns, shed_ns, matcher_ns, unattr;
  const SpanCost cost_rec = measure_span_cost(true);
  const SpanCost cost_idle = measure_span_cost(false);
  std::printf("tracer cost per span: %.1f ns inside, %.1f ns outside\n",
              cost_idle.inside_ns, cost_idle.outside_ns);
  ReplayResult first;
  for (std::size_t i = 0; i < 40; ++i) {
    const auto t_pair = Clock::now();
    SerialResult s = run_serial(queries, make_shedder(), sub);
    // Only the first replay keeps its span records.
    Tracer unrecorded(epoch);
    unrecorded.set_recording(false);
    Tracer& used = i == 0 ? replay : unrecorded;
    ReplayResult r = replay_traced(w.config.query, make_shedder(), sub, used);
    const std::vector<ComplexEvent> rm = StreamEngine::merge_matches({r.matches});
    const bool replay_ok = same_matches(rm, engine_shard);
    const bool serial_ok = same_matches(
        StreamEngine::merge_matches({std::move(s.matches)}), engine_shard);
    ctx.ledger.record(replay_ok && serial_ok,
                      "shard replay: matches differ from the engine's shard " +
                          std::to_string(shard) + " output");
    if (!replay_ok || !serial_ok) return;
    // Layer time = self time minus the tracer's own cost: each span's
    // inside cost, and for the window loop the outside cost of its
    // score_block children.
    const SpanCost& cost = i == 0 ? cost_rec : cost_idle;
    const SpanTotals& tw = used.totals("cep.window.offer_keep");
    const SpanTotals& ts = used.totals("core.shedder.score_block");
    const SpanTotals& td = used.totals("cep.window.drain");
    const SpanTotals& tm = used.totals("cep.matcher");
    auto net = [](double ns) { return std::max(0.0, ns); };
    const double window_timed_ns =
        net(static_cast<double>(tw.self_ns) -
            static_cast<double>(tw.count) * cost.inside_ns -
            static_cast<double>(ts.count) * cost.outside_ns);
    const double window_ns =
        (r.events_timed == 0 ? 0.0
                             : window_timed_ns * static_cast<double>(r.events) /
                                   static_cast<double>(r.events_timed)) +
        net(static_cast<double>(td.self_ns) -
            static_cast<double>(td.count) * cost.inside_ns);
    const double shed_per =
        r.memberships_timed == 0
            ? 0.0
            : net(static_cast<double>(ts.self_ns) -
                  static_cast<double>(ts.count) * cost.inside_ns) /
                  static_cast<double>(r.memberships_timed);
    const double match_ns = net(static_cast<double>(tm.self_ns) -
                                static_cast<double>(tm.count) * cost.inside_ns);
    const double layers_ns =
        window_ns + shed_per * static_cast<double>(r.memberships) + match_ns;
    traced_s.push_back(r.wall_s);
    serial_s.push_back(s.seconds);
    win_ns.push_back(window_ns / static_cast<double>(r.events));
    shed_ns.push_back(shed_per);
    matcher_ns.push_back(r.kept == 0 ? 0.0 : match_ns / static_cast<double>(r.kept));
    unattr.push_back(1.0 - layers_ns * 1e-9 / s.seconds);
    if (i == 0) first = std::move(r);
    const double pair_s = since(t_pair);
    if (i + 1 >= 3 && since(t_start) + pair_s > opt.seconds) break;
  }
  const double ev = static_cast<double>(first.events);
  std::printf("replay of shard %zu: %zu events, %zu replay/baseline pairs\n",
              shard, sub.size(), traced_s.size());
  m.set("runtime.shard.serial_eps", ev / median(serial_s), "events/s");
  m.set("cep.window.ns_per_event", median(win_ns), "ns");
  m.set("cep.window.memberships_per_event",
        static_cast<double>(first.memberships) / ev, "count");
  m.set("cep.matcher.ns_per_kept", median(matcher_ns), "ns");
  m.set("cep.matcher.kept_per_event", static_cast<double>(first.kept) / ev,
        "count");
  m.set("cep.matcher.matches", static_cast<double>(first.matches.size()),
        "count");
  if (w.shed) m.set("core.shedder.ns_per_membership", median(shed_ns), "ns");
  m.set("trace.unattributed_frac", median(unattr), "ratio");
  m.set("trace.overhead_frac", median(traced_s) / median(serial_s) - 1.0,
        "ratio");

  // Trace 5: the WAL layer on its own.
  if (w.durable) {
    wal.set_trace(5);
    std::vector<double> append_ns;
    std::uint64_t bytes = 0;
    for (int i = 0; i < 3; ++i) {
      Tracer t(epoch);
      const WalResult wr = run_wal_pass(ctx, i == 0 ? wal : t);
      append_ns.push_back(wr.seconds / n_events * 1e9);
      bytes = wr.bytes;
    }
    m.set("durability.wal.append_ns_per_event", median(append_ns), "ns");
    m.set("durability.wal.bytes_per_event", static_cast<double>(bytes) / n_events,
          "bytes");
  }

  // Spans are written once, at the end.
  if (std::FILE* f = std::fopen(spans_path.c_str(), "w")) {
    std::uint64_t base = 0;
    const Tracer* tracers[] = {&router, &producer1, &replay, &wal};
    for (std::uint32_t i = 0; i < 4; ++i) {
      write_spans(f, *tracers[i], i, base);
      base += tracers[i]->spans().size();
    }
    std::fclose(f);
    std::printf("spans: %llu written to %s\n",
                static_cast<unsigned long long>(base), spans_path.c_str());
  }
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      o.workload = v;
    } else if (k == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      o.seconds = std::atof(v);
    } else if (k == "--trace") {
      o.trace = std::string(v) == "1";
    } else if (k == "--rate") {
      o.rate = std::atof(v);
    } else if (k == "--work-dir") {
      o.work_dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o.workload.empty() && o.seconds > 0.0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--rate <events/s>] [--work-dir <dir>]\n");
    return 2;
  }
  const auto t_gen = Clock::now();
  std::optional<Workload> w = make_workload(opt.workload, opt.seed);
  if (!w) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  if (w->open_loop && opt.rate <= 0.0) {
    std::fprintf(stderr, "workload '%s' needs --rate (open-loop events/s)\n",
                 opt.workload.c_str());
    return 2;
  }
  std::printf("build: %s\n", PERFBENCH_BUILD_INFO);
  std::printf("workload %s, seed %llu: %zu events generated in %.2f s\n",
              w->name.c_str(), static_cast<unsigned long long>(opt.seed),
              w->events.size(), since(t_gen));
  std::printf("input checksum: %016llx\n",
              static_cast<unsigned long long>(stream_checksum(w->events)));
  if (w->shed) {
    std::printf("training prefix checksum: %016llx (%zu events)\n",
                static_cast<unsigned long long>(stream_checksum(w->shed->train)),
                w->shed->train.size());
  }

  fs::create_directories(opt.work_dir);
  Watchdog dog;
  Context ctx{*w, {}, {}, fs::path(opt.work_dir), opt.rate, dog, {}, 0};
  std::printf("busy threads: %zu\n", w->threads);

  MetricSet m;
  if (opt.trace) {
    compute_goldens(ctx);
    measure_traced(ctx, opt, m,
                   fs::path(opt.work_dir) / ("spans-" + w->name + "-" +
                                             std::to_string(opt.seed) + ".jsonl"));
  } else {
    // The process's first pass measures peak memory: before it, only input
    // generation has used the heap, so the figure repeats.  It also warms
    // caches and page tables for the timed passes, and is checked once the
    // goldens exist.
    const bool hwm_reset = reset_peak_rss();
    const double rss0 = status_kib("VmRSS:");
    RunResult first = run_closed(ctx, nullptr, nullptr);
    const double peak = status_kib("VmHWM:");
    if (!hwm_reset) std::printf("note: peak-RSS reset unavailable\n");
    m.set("peak_rss_mb", std::max(0.0, peak - rss0) / 1024.0, "MiB");
    std::error_code ec;
    if (w->durable) fs::remove_all(first.wal_dir, ec);
    compute_goldens(ctx);
    if (first.ok) {
      first.ok = same_matches(first.report.matches, ctx.golden);
      ctx.ledger.record(first.ok,
                        "first pass: output differs from the serial golden");
    }
    if (first.ok) measure_untraced(ctx, opt, m);
  }
  const double error_rate =
      ctx.ledger.attempted == 0
          ? 1.0
          : static_cast<double>(ctx.ledger.failed) /
                static_cast<double>(ctx.ledger.attempted);
  m.set("error_rate", error_rate, "ratio");
  for (const std::string& f : ctx.ledger.failures) {
    std::printf("FAILED: %s\n", f.c_str());
  }
  const bool correct = ctx.ledger.failed == 0 && ctx.ledger.attempted > 0;
  std::printf(
      "PERFBENCH_RESULT {\"correct\": %s, \"attempted\": %llu, \"failed\": "
      "%llu, \"metrics\": %s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(std::max<std::uint64_t>(1, ctx.ledger.attempted)),
      static_cast<unsigned long long>(ctx.ledger.failed), m.to_json().c_str());
  return correct ? 0 : 1;
}
