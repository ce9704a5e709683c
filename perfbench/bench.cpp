// vsd_perfbench — the in-process workload runner behind perfbench/run.py.
//
//   vsd_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--trace-file PATH]
//
// One invocation runs one workload of kWorkloads once:
//   1. set-up (timed as setup_s): the serve workload builds the dataset,
//      trains the tokenizer and trains the decoder-only `Ours` system; the
//      analysis workload generates its Verilog corpus;
//   2. an untimed warm-up on inputs the timed pass never sees;
//   3. the timed pass, driven through the layers' public entry points
//      (serve::Scheduler / RequestQueue / SessionCache, text::Tokenizer,
//      vlog::lint_source / elab_lint_source, sim::diff_check);
//   4. with --trace 1, a second timed pass of the same inputs with the
//      scheduler's trace and metrics hooks attached (serve workload) or the
//      benchmark's own per-layer timers (analysis workload);
//   5. the output check, outside every timed window.
//
// It prints one JSON object of raw measurements on stdout (per-operation
// latencies, sizes and verdicts, counters; with --trace 1 the Chrome trace
// goes to --trace-file); run.py turns them into the benchmark's metrics.
// Progress goes to stderr.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/trace.hpp"
#include "data/dataset.hpp"
#include "data/templates.hpp"
#include "eval/benchmarks.hpp"
#include "eval/harness.hpp"
#include "nn/kernel_dispatch.hpp"
#include "nn/parallel.hpp"
#include "serve/check_stage.hpp"
#include "serve/request_queue.hpp"
#include "serve/scheduler.hpp"
#include "serve/session_cache.hpp"
#include "sim/check.hpp"
#include "sim/design.hpp"
#include "spec/decode.hpp"
#include "text/bpe.hpp"
#include "vlog/dataflow.hpp"
#include "vlog/lexer.hpp"
#include "vlog/lint.hpp"
#include "vlog/parser.hpp"

using namespace vsd;

namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point g_process_start = Clock::now();

double secs(Clock::duration d) { return std::chrono::duration<double>(d).count(); }
double since(Clock::time_point t0) { return secs(Clock::now() - t0); }

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "vsd_perfbench: %s\n", msg.c_str());
  std::exit(2);
}

// --- workloads ---------------------------------------------------------------

/// What differs between workloads.  The seed then draws the prompts,
/// sampling seeds or corpus files.
struct Workload {
  enum class Kind {
    // Closed loop: kClients callers, each sending its next request from the
    // completion callback (no extra threads); a prompt is a shared RTL
    // context plus a unique instruction, kSamples back-to-back samples per
    // problem, each with its own seed.
    Closed,
    // One closed-loop caller checking generated Verilog files.
    Analyze,
  };
  const char* name;
  Kind kind;
  double slo_s;  // latency limit of slo_met_frac
};

// An open-loop workload of unique prompts was dropped: on a shared 4-vCPU
// host its latency percentiles spread 33-93% (IQR over median) across ten
// seeds in two of three sets, as host stalls queue the arrivals behind
// them.  Closed loops only slow down.
constexpr Workload kWorkloads[] = {
    // Offline pass@k sampling, results after lint and elab checks: 64 new
    // tokens at T=0.8 after ~200 shared prompt tokens, so prefix-cache reuse
    // and batched scoring do the work.
    {"closed_shared", Workload::Kind::Closed, 0.25},
    // Batch Verilog checking, as `vsd lint --elab` and the eval harness's
    // functional check do it.
    {"analyze_corpus", Workload::Kind::Analyze, 0.05},
};

// Training (serve workload): 32 items x 10 epochs is the smallest scale at
// which the model emits EOS on most prompts and commits ~3.3 tokens per
// speculative step; at 7-8 epochs it emits no EOS and ~2.4 tokens per step.
constexpr int kTrainItems = 32;
constexpr int kTrainEpochs = 10;
constexpr std::uint64_t kTrainSeed = 1;
// Training GEMMs use 4 compute threads: the weights are bit-identical at any
// width, and training takes 28-29 s against 41 s at one thread on a 4-vCPU
// host.  Decoding is pinned to one thread, since more slow decode-size
// GEMMs (48 requests: 3.2-3.4 s at 1 thread, 3.6-5.1 s at 2-4).
constexpr int kTrainThreads = 4;

// Serving shape.  One pool worker: with two, every tick waits on three
// vCPUs, and under bursts of steal alternate passes of one closed_shared
// seed spread from 5.3k to 11.1k tok/s.  The prefix cache keeps its default
// 16 entries and starts empty in every pass.
constexpr int kWorkers = 1;
constexpr int kBatch = 4;
constexpr std::size_t kCacheEntries = 16;

// Closed loop: 4 clients, 8 samples per problem, 4 shared contexts of ~200
// tokens.  prepare_request clamps prompts to 336 tokens at this budget, so
// a context plus its instruction must stay below that.  Warm-up runs half a
// second of 16 problems drawn apart from the timed ones.
constexpr int kClients = 4;
constexpr int kSamples = 8;
constexpr int kContexts = 4;
constexpr int kContextTokens = 200;
constexpr int kMaxNew = 64;
constexpr double kTemperature = 0.8;
constexpr const char* kChecks = "lint,elab";
constexpr int kWarmupProblems = 16;

// Analysis corpus: files of 1-8 modules; a 4-vCPU host checks ~400 files a
// second, so a run goes round the corpus a few times.  Generation is cheap
// and repeats kSetupReps times; setup_s is the median.
constexpr int kCorpusFiles = 1024;
constexpr int kMinModules = 1;
constexpr int kMaxModules = 8;
constexpr int kSetupReps = 5;
// Clock cycles (or input vectors) each differential check compares: the
// diff_check default, pinned so the expected comparison count is known.
constexpr int kDiffSteps = 64;

struct Options {
  const Workload* w = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_file;
};

Options parse_options(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) die("bad argument " + key);
    kv[key.substr(2)] = argv[++i];
  }
  const auto take = [&](const char* k) {
    const auto it = kv.find(k);
    if (it == kv.end()) die(std::string("missing --") + k);
    std::string v = it->second;
    kv.erase(it);
    return v;
  };
  const auto number = [&](const char* k, double lo, double hi) {
    const std::string s = take(k);
    char* end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (end == s.c_str() || *end != '\0' || !(v >= lo && v <= hi)) {
      die(std::string("--") + k + " must be a number in [" + std::to_string(lo) +
          ", " + std::to_string(hi) + "]");
    }
    return v;
  };
  Options o;
  const std::string name = take("workload");
  for (const Workload& w : kWorkloads) {
    if (name == w.name) o.w = &w;
  }
  if (o.w == nullptr) die("unknown workload " + name);
  o.seed = static_cast<std::uint64_t>(number("seed", 0, 4e9));
  o.seconds = number("seconds", 0.1, 600);
  o.trace = number("trace", 0, 1) != 0;
  if (o.trace) o.trace_file = take("trace-file");
  if (!kv.empty()) die("unknown option --" + kv.begin()->first);
  return o;
}

// --- JSON output ------------------------------------------------------------

std::string jnum(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string jstr(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

/// Builds one flat JSON object; values are pre-rendered JSON.
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + jstr(key) + ":" + json;
    return *this;
  }
  JsonObject& num(const std::string& key, double v) { return raw(key, jnum(v)); }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, jstr(v));
  }
  JsonObject& nums(const std::string& key, const std::vector<double>& vs) {
    std::string arr = "[";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      if (i > 0) arr += ",";
      arr += jnum(vs[i]);
    }
    return raw(key, arr + "]");
  }
  std::string dump() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// --- host diagnostics ---------------------------------------------------------

/// Aggregate CPU jiffies from /proc/stat: busy (everything but idle and
/// iowait) and the part of it the hypervisor stole.
struct CpuJiffies {
  unsigned long long busy = 0;
  unsigned long long steal = 0;
};

CpuJiffies read_cpu_jiffies() {
  CpuJiffies j;
  std::ifstream in("/proc/stat");
  std::string label;
  unsigned long long user = 0, nice = 0, sys = 0, idle = 0, iowait = 0, irq = 0,
                     softirq = 0, steal = 0;
  if (in >> label >> user >> nice >> sys >> idle >> iowait >> irq >> softirq >>
      steal) {
    j.busy = user + nice + sys + irq + softirq + steal;
    j.steal = steal;
  }
  return j;
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

// --- serve workload: set-up ------------------------------------------------

struct ServeSetup {
  eval::TrainedSystem sys;
  double setup_s = 0.0;
  double build_s = 0.0;
  double corpus_s = 0.0;
  double bpe_s = 0.0;
  double train_s = 0.0;
  int train_steps = 0;
};

ServeSetup setup_serve() {
  ServeSetup s;
  nn::set_compute_threads(kTrainThreads);
  data::DatasetConfig dcfg;
  dcfg.target_items = kTrainItems;
  dcfg.seed = kTrainSeed;
  auto t = Clock::now();
  const data::Dataset dataset = data::build_dataset(dcfg);
  s.build_s = since(t);
  t = Clock::now();
  const std::vector<std::string> corpus = data::tokenizer_corpus(dataset);
  s.corpus_s = since(t);
  t = Clock::now();
  const text::Tokenizer tok = text::Tokenizer::train(corpus, {.vocab_size = 384});
  s.bpe_s = since(t);
  eval::SystemConfig cfg;
  cfg.method = spec::Method::Ours;
  cfg.epochs = kTrainEpochs;
  cfg.seed = kTrainSeed;
  t = Clock::now();
  s.sys = eval::train_system(cfg, dataset, tok);
  s.train_s = since(t);
  s.train_steps = s.sys.train_stats.steps;
  nn::set_compute_threads(1);
  s.setup_s = since(g_process_start);
  std::fprintf(stderr,
               "# set-up %.2fs: dataset %zu items %.2fs, corpus %.3fs, bpe %.2fs, "
               "train %d steps %.2fs (loss %.3f -> %.3f)\n",
               s.setup_s, dataset.items.size(), s.build_s, s.corpus_s, s.bpe_s,
               s.train_steps, s.train_s, s.sys.train_stats.first_loss,
               s.sys.train_stats.final_loss);
  return s;
}

// --- serve workload: one pass ------------------------------------------------

/// Everything one serving pass measured.  Operations are indexed by request
/// id; `requests` keeps what the output check needs to replay each one.
struct ServePass {
  std::vector<serve::Request> requests;       // by id (prompt text dropped)
  std::vector<double> latency;                // by id, -1 until completed
  std::vector<std::vector<int>> outputs;      // by id
  double wall_s = 0.0;
  long tokens = 0;
  long steps = 0;
  long positions = 0;
  long prefill = 0;
  long depth_end = 0;
  serve::ServeStats stats;
  serve::SessionCacheStats cache;
  double cache_lookup_p50_s = 0.0;
  double decode_text_s = 0.0;
};

/// The serving shape every pass of the serve workload runs with.
struct ServeRig {
  const ServeSetup& setup;

  spec::DecodeConfig base_config() const {
    spec::DecodeConfig base;
    base.max_new_tokens = kMaxNew;
    base.temperature = static_cast<float>(kTemperature);
    return base;
  }

  serve::Request make_request(std::uint64_t id, const std::string& prompt,
                              std::uint64_t seed) const {
    eval::PreparedRequest prep = eval::prepare_request(setup.sys, prompt, base_config());
    serve::Request req;
    req.id = id;
    req.prompt_ids = std::move(prep.prompt_ids);
    req.config = prep.config;
    req.seed = seed;
    return req;
  }

  /// Runs the scheduler over `queue` until it is closed and drained.  The
  /// callback sees each request after its check stages; `trace`/`reg` are
  /// the scheduler's existing observability hooks (null when untraced).
  template <typename OnDone>
  void serve(serve::RequestQueue& queue, ServePass& pass, obs::TraceWriter* trace,
             obs::Registry* reg, OnDone&& on_done) const {
    serve::SessionCache cache({.capacity = kCacheEntries});
    if (reg != nullptr) cache.attach_metrics(reg);
    obs::Histogram decode_hist;
    const eval::TrainedSystem& sys = setup.sys;
    std::string err;
    const std::vector<serve::CheckStage> checks = serve::parse_check_stages(
        kChecks,
        [&sys, &decode_hist](const spec::DecodeResult& r) {
          const auto t = Clock::now();
          std::string text = sys.tokenizer.decode(r.ids);
          decode_hist.record(since(t));
          return text;
        },
        err);
    if (checks.empty()) die("bad check stages: " + err);
    serve::SchedulerOptions so;
    so.workers = kWorkers;
    so.batch = kBatch;
    so.cache = &cache;
    so.metrics = reg;
    so.trace = trace;
    so.checks = checks;
    so.kernel = nn::KernelMode::Exact;
    serve::Scheduler scheduler(*sys.model, queue, so);
    pass.stats = scheduler.run(serve::Scheduler::CheckedCompletion(
        [&](const serve::Request& req, spec::DecodeResult r,
            const serve::CheckReport*) {
          const auto now = Clock::now();
          pass.tokens += static_cast<long>(r.ids.size());
          pass.steps += r.steps;
          pass.positions += r.positions;
          pass.prefill += r.prefill_positions;
          pass.outputs[req.id] = std::move(r.ids);
          on_done(req, now);
        }));
    pass.cache = cache.stats();
    if (reg != nullptr) {
      pass.cache_lookup_p50_s = reg->histogram("serve.cache.lookup_s").quantile(0.5);
    }
    pass.decode_text_s = decode_hist.sum();
  }
};

/// Closed-loop inputs: a few shared RTL project contexts (template-library
/// modules) and per-problem instructions, all from the workload seed.  Each
/// problem is tokenized once, as a pass@k client prepares a problem once for
/// all of its samples, so the completion callback that sends the next
/// sample does no tokenizer work on the scheduler thread.
struct ClosedPlan {
  std::vector<serve::Request> problems;  // prepared prompt ids and config
  std::uint64_t seed = 0;
  double encode_s = 0.0;  // preparing the problems (text.encode_s)

  serve::Request request(long pos) const {
    serve::Request req =
        problems[static_cast<std::size_t>(pos / kSamples) % problems.size()];
    req.id = static_cast<std::uint64_t>(pos);
    Rng r(seed ^ (0xA24BAED4963EE407ull * static_cast<std::uint64_t>(pos + 1)));
    req.seed = r.next_u64();
    return req;
  }
};

ClosedPlan make_closed_plan(const ServeRig& rig, std::uint64_t seed,
                            std::uint64_t stream, int n_problems) {
  const text::Tokenizer& tok = rig.setup.sys.tokenizer;
  ClosedPlan p;
  Rng rng(seed * 0x9E3779B97F4A7C15ull + stream);
  p.seed = rng.next_u64();
  // Each context stacks whole modules until it reaches the target size,
  // skipping any module that would overshoot it by more than a quarter.
  const std::size_t cap = static_cast<std::size_t>(kContextTokens) * 5 / 4;
  std::vector<std::string> contexts;
  for (int c = 0; c < kContexts; ++c) {
    std::string ctx;
    for (int tries = 0; tries < 200; ++tries) {
      const data::RtlSample m = data::TemplateLibrary::generate_any(rng);
      const std::string next = ctx + m.code + "\n";
      const std::size_t len = tok.encode(next).size();
      if (len > cap) continue;
      ctx = next;
      if (len >= static_cast<std::size_t>(kContextTokens)) break;
    }
    contexts.push_back(ctx);
  }
  // The clamp in prepare_request would cut the instruction off a prompt
  // that reaches its budget, so such instructions are redrawn.
  const int new_tokens = rig.make_request(0, "", 0).config.max_new_tokens;
  const std::size_t budget =
      static_cast<std::size_t>(rig.setup.sys.config.max_seq - new_tokens - 16);
  for (int k = 0; k < n_problems; ++k) {
    const std::string& ctx = contexts[rng.next_below(contexts.size())];
    for (int tries = 0;; ++tries) {
      if (tries > 200) die("cannot fit an instruction under the prompt budget");
      const data::RtlSample s =
          data::TemplateLibrary::generate_any(rng, data::Pool::Eval);
      const auto t = Clock::now();
      serve::Request req =
          rig.make_request(0, ctx + data::alpaca_prompt(s.description), 0);
      p.encode_s += since(t);
      if (req.prompt_ids.size() < budget) {
        p.problems.push_back(std::move(req));
        break;
      }
    }
  }
  return p;
}

ServePass run_closed(const ServeRig& rig, const ClosedPlan& plan, double seconds,
                     obs::TraceWriter* trace, obs::Registry* reg) {
  ServePass pass;
  serve::RequestQueue queue(static_cast<std::size_t>(kClients) * 4);
  std::vector<Clock::time_point> sent_at;
  long next_pos = 0;
  int active = 0;
  // Called from this thread before the run and from the scheduler's
  // completion callback (also this thread) during it.
  const auto send = [&] {
    serve::Request req = plan.request(next_pos++);
    pass.requests.push_back(req);
    pass.latency.push_back(-1.0);
    pass.outputs.emplace_back();
    sent_at.push_back(Clock::now());
    // A refused request keeps latency -1 and counts as failed.
    return queue.try_push(std::move(req));
  };
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
  for (int c = 0; c < kClients; ++c) {
    if (send()) ++active;
  }
  if (active == 0) queue.close();
  Clock::time_point last_done = t0;
  bool depth_sampled = false;
  rig.serve(queue, pass, trace, reg,
            [&](const serve::Request& req, Clock::time_point now) {
              pass.latency[req.id] = secs(now - sent_at[req.id]);
              last_done = now;
              if (now < deadline && send()) return;
              if (!depth_sampled) {
                pass.depth_end = static_cast<long>(queue.size());
                depth_sampled = true;
              }
              if (--active == 0) queue.close();
            });
  pass.wall_s = secs(last_done - t0);
  return pass;
}

/// Output check: every completed request must carry exactly the tokens
/// spec::Decoder::speculative produces for its prompt, config and seed.
/// Runs after the timed window on up to four threads.  Returns per-op
/// verdicts (false also for requests that never completed).
std::vector<char> verify(const eval::TrainedSystem& sys, const ServePass& pass) {
  const int threads = std::min(4, nn::hardware_threads());
  const std::size_t n = pass.requests.size();
  std::vector<char> ok(n, 0);
  std::atomic<std::size_t> next{0};
  const spec::Decoder dec(*sys.model);
  const auto work = [&] {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      if (pass.latency[i] < 0.0) continue;
      const serve::Request& req = pass.requests[i];
      Rng rng(req.seed);
      const spec::DecodeResult ref = dec.speculative(req.prompt_ids, req.config, rng);
      ok[i] = ref.ids == pass.outputs[i] ? 1 : 0;
    }
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(work);
  work();
  for (std::thread& t : pool) t.join();
  return ok;
}

// --- analysis workload ----------------------------------------------------------

/// A defect planted in a corpus file, with the verdict it must produce.
/// Every other file carries one, so an analysis that skips a pass, drops
/// findings or compares fewer vectors cannot reproduce the expected
/// verdicts.  Codes are the stable VSD-Lxxx catalogue of vlog/lint.hpp and
/// the L2xx passes.
struct Plant {
  const char* top_lines;  // added to the file's generated top module
  const char* lint_code;  // must appear in lint_source's findings
  const char* elab_code;  // must appear in elab_lint_source's findings
  bool lint_error;        // lint_source reports an error
  bool elab_error;        // elab_lint_source reports an error
  bool mutant;            // adds a non-equivalent candidate to diff
};

constexpr Plant kPlants[] = {
    {"", "", "", false, false, false},  // clean
    {"  wire spare;\n  assign spare = 1'b0;\n", "VSD-L160", "", false, false, false},
    {"  wire probe;\n  assign probe = ghost;\n", "VSD-L100", "VSD-L201", true, true, false},
    {"  wire loop_a, loop_b;\n  assign loop_a = ~loop_b;\n  assign loop_b = loop_a;\n", "",
     "VSD-L200", false, true, false},
    {"", "", "", false, false, true},  // the first module, every output inverted
};

struct Golden {
  std::string module;
  std::string code;
  long vectors = 0;  // output comparisons diff_check must make
};

struct CorpusFile {
  std::string text;
  std::vector<Golden> goldens;
  const Plant* plant = &kPlants[0];
  std::string mutant;  // candidate for goldens.front() when plant->mutant
  long tokens = 0;     // Verilog tokens, counted after set-up
};

/// `[7:0] ` for a multi-bit signal, empty for a single bit.
std::string range_of(const sim::Signal& s) {
  if (s.width <= 1 && s.msb == s.lsb) return "";
  return "[" + std::to_string(s.msb) + ":" + std::to_string(s.lsb) + "] ";
}

/// One elaborated template module's ports: (name, signal, is input).
struct PortInfo {
  std::string name;
  sim::Signal signal;
  bool input = false;
};

/// A candidate for module `name` that wraps the golden (renamed
/// `name_ref`) and drives every output inverted, so diff_check must find
/// mismatches wherever the golden's output is known.
std::string make_mutant(const std::string& name, const std::string& code,
                        const std::vector<PortInfo>& ports) {
  std::string ref = code;
  const std::string head = "module " + name;
  const std::size_t at = ref.find(head);
  if (at == std::string::npos) die("no header for module " + name);
  ref.insert(at + head.size(), "_ref");
  std::string decls, wires, conns, assigns;
  for (const PortInfo& p : ports) {
    decls += (decls.empty() ? "    " : ",\n    ") + std::string(p.input ? "input " : "output ") +
             range_of(p.signal) + p.name;
    const std::string net = p.input ? p.name : "r_" + p.name;
    conns += (conns.empty() ? "" : ", ") + ("." + p.name + "(" + net + ")");
    if (!p.input) {
      wires += "  wire " + range_of(p.signal) + net + ";\n";
      assigns += "  assign " + p.name + " = ~" + net + ";\n";
    }
  }
  return ref + "\nmodule " + name + " (\n" + decls + "\n);\n" + wires + "  " + name +
         "_ref core (" + conns + ");\n" + assigns + "endmodule\n";
}

/// One corpus file: kMinModules..kMaxModules distinct template-library
/// modules plus a generated top that instantiates each of them once or
/// twice, every instance port wired to its own top-level port.  Module
/// counts cycle with the file index, so every seed's corpus has the same
/// mix of file sizes; odd-numbered files carry one planted defect each, in
/// turn.
CorpusFile make_corpus_file(Rng& rng, int index) {
  CorpusFile f;
  if (index % 2 == 1) f.plant = &kPlants[1 + (index / 2) % 4];
  const int k = kMinModules + index % (kMaxModules - kMinModules + 1);
  std::vector<data::RtlSample> mods;
  for (int tries = 0; static_cast<int>(mods.size()) < k; ++tries) {
    if (tries > 1000) die("cannot draw distinct module names");
    data::RtlSample s = data::TemplateLibrary::generate_any(rng);
    const bool dup = std::any_of(mods.begin(), mods.end(), [&](const auto& m) {
      return m.module_name == s.module_name;
    });
    if (!dup) mods.push_back(std::move(s));
  }
  std::string ports;
  std::string body;
  int inst = 0;
  for (const data::RtlSample& m : mods) {
    f.text += m.code + "\n";
    vlog::ParseResult pr = vlog::parse(m.code);
    if (!pr.ok) die("template module does not parse: " + pr.error);
    std::shared_ptr<const vlog::SourceUnit> unit(std::move(pr.unit));
    const sim::ElabResult er = sim::elaborate(unit, m.module_name);
    if (!er.ok) die("template module does not elaborate: " + er.error);
    const sim::Design& d = *er.design;
    std::vector<PortInfo> infos;
    for (const vlog::ModulePort& p : unit->modules.front()->ports) {
      const int id = d.find(p.name);
      if (id < 0) die("port " + p.name + " not elaborated");
      const bool input = std::find(d.top_inputs.begin(), d.top_inputs.end(), id) !=
                         d.top_inputs.end();
      infos.push_back({p.name, d.signals[static_cast<std::size_t>(id)], input});
    }
    f.goldens.push_back({m.module_name, m.code,
                         static_cast<long>(kDiffSteps * d.top_outputs.size())});
    if (f.plant->mutant && f.mutant.empty()) {
      f.mutant = make_mutant(m.module_name, m.code, infos);
    }
    const int copies = rng.next_bool(0.3) ? 2 : 1;
    for (int c = 0; c < copies; ++c, ++inst) {
      const std::string u = "u" + std::to_string(inst);
      std::string conns;
      for (const PortInfo& p : infos) {
        const std::string net = u + "_" + p.name;
        ports += (ports.empty() ? "    " : ",\n    ") +
                 std::string(p.input ? "input " : "output ") + range_of(p.signal) + net;
        conns += (conns.empty() ? "" : ", ") + ("." + p.name + "(" + net + ")");
      }
      body += "  " + m.module_name + " " + u + " (" + conns + ");\n";
    }
  }
  f.text += "module top_" + std::to_string(index) + " (\n" + ports + "\n);\n" + body +
            f.plant->top_lines + "endmodule\n";
  return f;
}

std::vector<CorpusFile> make_corpus(std::uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 3);
  std::vector<CorpusFile> files;
  for (int i = 0; i < kCorpusFiles; ++i) files.push_back(make_corpus_file(rng, i));
  return files;
}

/// Distinct diagnostic codes of `r`, sorted and comma-joined.
std::string codes_of(const vlog::LintResult& r) {
  std::vector<std::string> codes;
  for (const vlog::Diagnostic& d : r.diagnostics()) codes.push_back(d.code);
  std::sort(codes.begin(), codes.end());
  codes.erase(std::unique(codes.begin(), codes.end()), codes.end());
  std::string out;
  for (const std::string& c : codes) out += (out.empty() ? "" : ",") + c;
  return out;
}

/// One file's verdicts; equal verdicts for every check of the same file.
struct FileVerdict {
  int lint_errors = 0;
  int lint_warnings = 0;
  int elab_errors = 0;
  int elab_warnings = 0;
  std::string lint_codes;
  std::string elab_codes;
  int diffs = 0;
  int equivalent = 0;
  long vectors = 0;     // output comparisons (DiffResult::checks), summed
  long mismatches = 0;
  bool operator==(const FileVerdict&) const = default;
};

/// True when `v` is the verdict the file's construction implies: every
/// golden module is equivalent to its copy in the file over all of its
/// comparisons, a mutant is not, and a planted defect shows as its code
/// (and as an error where it is one).
bool as_built(const CorpusFile& f, const FileVerdict& v) {
  const Plant& p = *f.plant;
  const auto has = [](const std::string& codes, const char* code) {
    return *code == '\0' || codes.find(code) != std::string::npos;
  };
  long vectors = 0;
  for (const Golden& g : f.goldens) vectors += g.vectors;
  if (p.mutant) vectors += f.goldens.front().vectors;
  const int goldens = static_cast<int>(f.goldens.size());
  return (v.lint_errors > 0) == p.lint_error && (v.elab_errors > 0) == p.elab_error &&
         has(v.lint_codes, p.lint_code) && has(v.elab_codes, p.elab_code) &&
         v.diffs == goldens + (p.mutant ? 1 : 0) && v.equivalent == goldens &&
         v.vectors == vectors && (v.mismatches > 0) == p.mutant;
}

struct LayerTimes {
  double lex_s = 0, parse_s = 0, lint_s = 0, dataflow_s = 0, diff_s = 0;
  long tokens = 0, diagnostics = 0, diffs = 0, equivalent = 0;
  long lint_clean = 0, elab_clean = 0;
};

/// Checks one file.  Untimed layers (`layers` null) go through the public
/// entry points; with `layers`, the same work is split into lex, parse,
/// lint_unit, analyze_unit and diff_check calls, each timed — plus the one
/// extra lex it takes to see lexing on its own.
FileVerdict check_file(const CorpusFile& f, LayerTimes* layers) {
  FileVerdict v;
  const auto diff = [&](const std::string& golden, const std::string& candidate,
                        const std::string& top) {
    sim::DiffOptions opts;
    opts.cycles = opts.vectors = kDiffSteps;
    const auto t = Clock::now();
    const sim::DiffResult d = sim::diff_check(golden, candidate, top, opts);
    if (layers != nullptr) layers->diff_s += since(t);
    ++v.diffs;
    v.equivalent += d.equivalent ? 1 : 0;
    v.vectors += d.checks;
    v.mismatches += d.mismatches;
  };
  vlog::LintResult lint;
  vlog::LintResult elab;
  if (layers == nullptr) {
    lint = vlog::lint_source(f.text);
    elab = vlog::elab_lint_source(f.text);
  } else {
    auto t = Clock::now();
    const vlog::LexResult lx = vlog::lex(f.text);
    layers->lex_s += since(t);
    layers->tokens += static_cast<long>(lx.tokens.size());
    // lint_source and elab_lint_source each parse the buffer; so does this.
    for (int pass = 0; pass < 2; ++pass) {
      t = Clock::now();
      vlog::ParseResult pr = vlog::parse(f.text);
      layers->parse_s += since(t);
      if (!pr.ok) die("corpus file does not parse: " + pr.error);
      t = Clock::now();
      if (pass == 0) {
        lint = vlog::lint_unit(*pr.unit);
        layers->lint_s += since(t);
      } else {
        elab = vlog::analyze_unit(std::shared_ptr<const vlog::SourceUnit>(std::move(pr.unit)));
        layers->dataflow_s += since(t);
      }
    }
  }
  v.lint_errors = lint.errors();
  v.lint_warnings = lint.warnings();
  v.elab_errors = elab.errors();
  v.elab_warnings = elab.warnings();
  v.lint_codes = codes_of(lint);
  v.elab_codes = codes_of(elab);
  for (const Golden& g : f.goldens) diff(g.code, f.text, g.module);
  if (f.plant->mutant) diff(f.goldens.front().code, f.mutant, f.goldens.front().module);
  if (layers != nullptr) {
    layers->diagnostics += static_cast<long>(lint.diagnostics().size() +
                                             elab.diagnostics().size());
    layers->lint_clean += lint.has_errors() ? 0 : 1;
    layers->elab_clean += elab.has_errors() ? 0 : 1;
    layers->diffs += v.diffs;
    layers->equivalent += v.equivalent;
  }
  return v;
}

struct AnalyzePass {
  std::vector<double> latency;
  std::vector<double> op_tokens;   // Verilog tokens of each file checked
  std::vector<char> ok;
  double wall_s = 0.0;
  LayerTimes layers;
};

/// Checks files round-robin for `seconds`.  Each check must give the
/// verdict the file was built to give, and the same one as the warm-up
/// round.
AnalyzePass run_analyze(const std::vector<CorpusFile>& files, double seconds,
                        bool timed_layers, const std::vector<FileVerdict>& verdicts) {
  AnalyzePass pass;
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
  for (std::size_t i = 0; Clock::now() < deadline; ++i) {
    const std::size_t fi = i % files.size();
    const auto t = Clock::now();
    const FileVerdict v = check_file(files[fi], timed_layers ? &pass.layers : nullptr);
    pass.latency.push_back(since(t));
    pass.op_tokens.push_back(static_cast<double>(files[fi].tokens));
    pass.ok.push_back(v == verdicts[fi] && as_built(files[fi], v) ? 1 : 0);
  }
  pass.wall_s = since(t0);
  return pass;
}

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

std::string verdict_digest(const std::vector<FileVerdict>& vs) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (std::size_t i = 0; i < vs.size(); ++i) {
    const FileVerdict& v = vs[i];
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%zu:%d,%d,%d,%d,%d,%d,%ld,%ld;", i, v.lint_errors,
                  v.lint_warnings, v.elab_errors, v.elab_warnings, v.diffs, v.equivalent,
                  v.vectors, v.mismatches);
    h = fnv1a(h, buf + v.lint_codes + ";" + v.elab_codes + ";");
  }
  char out[20];
  std::snprintf(out, sizeof(out), "%016" PRIx64, h);
  return out;
}

// --- reporting ------------------------------------------------------------------

/// Raw numbers of one serving pass.  Per-op arrays are by request id; a
/// latency of -1 marks a request that never completed.
std::string serve_pass_json(const ServePass& p, const std::vector<char>& ok,
                            const eval::TrainedSystem& sys) {
  const serve::ServeStats& s = p.stats;
  const nn::ModelConfig& mc = sys.model->config();
  std::vector<double> op_tokens;
  for (const std::vector<int>& ids : p.outputs) {
    op_tokens.push_back(static_cast<double>(ids.size()));
  }
  JsonObject j;
  j.nums("latency_s", p.latency)
      .nums("op_tokens", op_tokens)
      .nums("ok", std::vector<double>(ok.begin(), ok.end()))
      .num("wall_s", p.wall_s)
      .num("tokens", static_cast<double>(p.tokens))
      .num("steps", static_cast<double>(p.steps))
      .num("positions", static_cast<double>(p.positions))
      .num("prefill_positions", static_cast<double>(p.prefill))
      .num("depth_end", static_cast<double>(p.depth_end))
      .num("decode_text_s", p.decode_text_s)
      .num("run_wall_s", s.wall_seconds)
      .num("ticks", static_cast<double>(s.ticks))
      .num("tick_sum_s", s.tick.sum)
      .num("tick_p50_s", s.tick.p50)
      .num("occupancy_mean", s.occupancy_mean)
      .num("ttft_p50_s", s.ttft.p50)
      .num("queue_wait_p50_s", s.queue_wait.p50)
      .num("fused_passes", static_cast<double>(s.fused_passes))
      .num("fused_rows", static_cast<double>(s.fused_rows))
      .num("d_model", mc.d_model)
      .num("vocab", mc.vocab)
      .num("cached_positions", static_cast<double>(s.cached_positions))
      .num("cache_hits", static_cast<double>(p.cache.hits))
      .num("cache_misses", static_cast<double>(p.cache.misses))
      .num("cache_insertions", static_cast<double>(p.cache.insertions))
      .num("cache_evictions", static_cast<double>(p.cache.evictions))
      .num("cache_bytes", static_cast<double>(p.cache.bytes))
      .num("cache_lookup_p50_s", p.cache_lookup_p50_s)
      .num("kv_cow_clones", static_cast<double>(s.kv.pages_cow_cloned))
      .num("kv_pages_shared", static_cast<double>(s.kv.pages_shared))
      .num("checks_pass", s.checks_pass)
      .num("checks_fail", s.checks_fail);
  for (const serve::CheckStageStats& cs : s.check_stages) {
    j.num("check_" + cs.name + "_p50_s", cs.latency.p50);
  }
  return j.dump();
}

std::string analyze_pass_json(const AnalyzePass& p) {
  const LayerTimes& l = p.layers;
  JsonObject j;
  j.nums("latency_s", p.latency)
      .nums("ok", std::vector<double>(p.ok.begin(), p.ok.end()))
      .num("wall_s", p.wall_s)
      .nums("op_tokens", p.op_tokens)
      .num("lex_s", l.lex_s)
      .num("parse_s", l.parse_s)
      .num("lint_s", l.lint_s)
      .num("dataflow_s", l.dataflow_s)
      .num("diff_s", l.diff_s)
      .num("tokens", static_cast<double>(l.tokens))
      .num("diagnostics", static_cast<double>(l.diagnostics))
      .num("diff_checks", static_cast<double>(l.diffs))
      .num("equivalent", static_cast<double>(l.equivalent))
      .num("lint_clean", static_cast<double>(l.lint_clean))
      .num("elab_clean", static_cast<double>(l.elab_clean));
  return j.dump();
}

int run(const Options& o) {
  const CpuJiffies cpu0 = read_cpu_jiffies();
  const Workload& w = *o.w;
  // Training, serving and the replay in verify() all use the exact kernel
  // tier, whatever $VSD_KERNEL says.
  nn::set_kernel_mode(nn::KernelMode::Exact);
  JsonObject out;
  out.str("kind", w.kind == Workload::Kind::Closed ? "closed" : "analyze");
  out.num("slo_s", w.slo_s);

  if (w.kind == Workload::Kind::Analyze) {
    // Corpus generation is cheap, so it runs several times and the median
    // is the set-up time; every repetition yields the same corpus.
    std::vector<double> setups;
    std::vector<CorpusFile> files;
    for (int r = 0; r < kSetupReps; ++r) {
      const auto t = Clock::now();
      files = make_corpus(o.seed);
      setups.push_back(since(t));
    }
    out.nums("setup_s", setups);
    for (CorpusFile& f : files) {
      f.tokens = static_cast<long>(vlog::lex(f.text).tokens.size());
    }
    // Warm-up: one round over the corpus, whose verdicts every timed check
    // must reproduce and the digest covers.
    std::vector<FileVerdict> verdicts;
    long not_as_built = 0;
    for (const CorpusFile& f : files) {
      verdicts.push_back(check_file(f, nullptr));
      not_as_built += as_built(f, verdicts.back()) ? 0 : 1;
    }
    if (not_as_built > 0) {
      std::fprintf(stderr, "# %ld of %zu files gave a verdict other than the one built in\n",
                   not_as_built, files.size());
    }
    const AnalyzePass plain = run_analyze(files, o.seconds, false, verdicts);
    out.raw("pass", analyze_pass_json(plain));
    if (o.trace) {
      const AnalyzePass traced = run_analyze(files, o.seconds, true, verdicts);
      out.raw("traced", analyze_pass_json(traced));
    }
    out.str("digest", verdict_digest(verdicts));
  } else {
    const ServeSetup setup = setup_serve();
    out.nums("setup_s", {setup.setup_s});
    out.raw("setup_parts", JsonObject()
                               .num("data.build_s", setup.build_s)
                               .num("data.corpus_s", setup.corpus_s)
                               .num("text.bpe_train_s", setup.bpe_s)
                               .num("spec.train_s", setup.train_s)
                               .num("spec.train_steps", setup.train_steps)
                               .dump());
    const ServeRig rig{setup};
    // Warm-up: half a second of traffic whose inputs come from their own
    // stream, so no timed prompt is ever served (or cached) before its
    // timed pass.
    (void)run_closed(rig, make_closed_plan(rig, o.seed, 101, kWarmupProblems), 0.5,
                     nullptr, nullptr);
    // Enough distinct problems for 300 requests a second (about twice what a
    // 4-vCPU host completes), so a run does not wrap round.
    const ClosedPlan plan = make_closed_plan(
        rig, o.seed, 1, static_cast<int>(std::ceil(300.0 * o.seconds / kSamples)));
    out.num("encode_s", plan.encode_s);
    const auto pass = [&](obs::TraceWriter* trace, obs::Registry* reg) {
      return run_closed(rig, plan, o.seconds, trace, reg);
    };
    const ServePass plain = pass(nullptr, nullptr);
    std::fprintf(stderr, "# timed pass: %zu requests, %.2fs, %ld tokens\n",
                 plain.requests.size(), plain.wall_s, plain.tokens);
    out.raw("pass", serve_pass_json(plain, verify(setup.sys, plain),
                                    setup.sys));
    if (o.trace) {
      obs::TraceWriter trace;
      obs::Registry reg;
      const ServePass traced = pass(&trace, &reg);
      if (!trace.write_file(o.trace_file)) die("cannot write " + o.trace_file);
      out.raw("traced", serve_pass_json(traced,
                                        verify(setup.sys, traced),
                                        setup.sys));
      out.num("trace_dropped", static_cast<double>(trace.dropped()));
    }
  }
  const CpuJiffies cpu1 = read_cpu_jiffies();
  const double busy = static_cast<double>(cpu1.busy - cpu0.busy);
  out.num("host_steal_frac",
          busy > 0 ? static_cast<double>(cpu1.steal - cpu0.steal) / busy : 0.0);
  out.num("proc_cpu_s", process_cpu_seconds());
  out.num("peak_rss_mb", peak_rss_mb());
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_options(argc, argv);
  try {
    return run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vsd_perfbench: %s\n", e.what());
    return 1;
  }
}
