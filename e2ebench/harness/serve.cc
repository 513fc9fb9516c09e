// serve_mixed: pbserve on loopback, driven by a few closed-loop client
// connections from this process. Most queries repeat (result-cache hits),
// some are fresh small exact queries, and one connection appends rows to
// the table the fresh queries read.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "engine/engine.h"
#include "harness/data.h"
#include "harness/query.h"
#include "harness/replay.h"
#include "harness/trace.h"
#include "harness/workloads.h"
#include "server/protocol.h"

namespace e2e {

namespace {

// One query connection and two engine threads leave cores free for the
// server's connection threads and this process on a 4-core host. (With
// two query connections, whether an append waited behind one solve or two
// changed from run to run.) A second connection only appends, and sleeps
// between appends.
constexpr int kQueryConnections = 1;
constexpr int kServerThreads = 2;
constexpr size_t kRecipes = 5000;
constexpr size_t kAppendRows = 1;
/// One append per period of the measured phase, at a seeded random point
/// of the period: the table grows by the same rows in every run, however
/// fast the server is, and appends arrive at no fixed point of the query
/// connections' rounds.
constexpr int64_t kAppendPeriodNs = 10000000;
constexpr int kRepeated = 6;
/// Fresh queries move their cost budget by a thousandth per query, in a
/// cycle this long, so a text comes back only after many appends.
constexpr int kFreshCycle = 1000;
constexpr int64_t kMaxNodes = 100000;

/// pbserve as a child process, its stdout on a pipe (the ready line) and
/// its stderr in a log file. The destructor stops it (SIGTERM, then SIGKILL
/// after a grace period) and reaps it, on every exit path.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Starts `argv`.
  std::string Start(const std::vector<std::string>& argv,
                    const std::string& log) {
    int out[2];
    if (pipe(out) != 0) return std::string("pipe: ") + std::strerror(errno);
    pid_ = fork();
    if (pid_ < 0) {
      close(out[0]);
      close(out[1]);
      return std::string("fork: ") + std::strerror(errno);
    }
    if (pid_ == 0) {
      // Dies with the harness even when the harness is killed.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      dup2(out[1], 1);
      close(out[0]);
      close(out[1]);
      const int fd = open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        dup2(fd, 2);
        close(fd);
      }
      std::vector<char*> args;
      for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
      args.push_back(nullptr);
      execv(args[0], args.data());
      _exit(127);
    }
    close(out[1]);
    stdout_ = out[0];
    return "";
  }

  /// Blocks until pbserve prints "listening on HOST:PORT"; returns the
  /// port, or -1 when it exits or stays silent for `timeout_s`.
  int WaitListening(double timeout_s) {
    const int64_t end = NowNs() + static_cast<int64_t>(timeout_s * 1e9);
    std::string text;
    for (;;) {
      const size_t at = text.find("listening on ");
      const size_t nl = text.find('\n', at);
      if (at != std::string::npos && nl != std::string::npos) {
        const size_t colon = text.rfind(':', nl);
        return std::atoi(text.c_str() + colon + 1);
      }
      const int64_t left_ms = (end - NowNs()) / 1000000;
      if (left_ms <= 0) return -1;
      pollfd p{stdout_, POLLIN, 0};
      if (poll(&p, 1, static_cast<int>(left_ms)) <= 0) continue;
      char chunk[4096];
      const ssize_t n = read(stdout_, chunk, sizeof(chunk));
      if (n <= 0) return -1;  // pbserve exited before it was ready
      text.append(chunk, static_cast<size_t>(n));
    }
  }

  pid_t pid() const { return pid_; }

  void Stop() {
    if (pid_ > 0) {
      kill(pid_, SIGTERM);
      int status = 0;
      bool reaped = false;
      for (int i = 0; i < 1000 && !reaped; ++i) {
        reaped = waitpid(pid_, &status, WNOHANG) == pid_;
        if (!reaped) usleep(10000);
      }
      if (!reaped) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
      }
      pid_ = -1;
    }
    if (stdout_ >= 0) {
      close(stdout_);
      stdout_ = -1;
    }
  }

 private:
  pid_t pid_ = -1;
  int stdout_ = -1;  ///< read end of pbserve's stdout
};

/// One newline-framed JSON connection.
class Conn {
 public:
  Conn() = default;
  ~Conn() {
    if (fd_ >= 0) close(fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool Connect(int port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    const int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }

  /// Sends one request line and returns the response line ("" on error).
  std::string Call(const std::string& request) {
    std::string out = request + "\n";
    size_t sent = 0;
    while (sent < out.size()) {
      const ssize_t n = send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return "";
      sent += static_cast<size_t>(n);
    }
    for (;;) {
      const size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      char chunk[65536];
      const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return "";
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

struct ServeOp {
  enum Kind { kRepeated, kFresh, kAppend } kind = kRepeated;
  int family = 0;     ///< repeated text index; fresh: cuisine
  QuerySpec spec;     ///< queries
  std::string request;
  size_t begin = 0;   ///< appended rows [begin, end)
  size_t end = 0;
  double rtt = 0.0;   ///< client round trip, seconds
  std::string response;
};

/// A query response as the checks read it.
struct Parsed {
  bool ok = false;
  std::string error;
  Answer answer;
  bool proven = false;
  bool hit = false;
  size_t table_rows = 0;
  double parse_s = 0.0;
  double solve_s = 0.0;
  double total_s = 0.0;
};

Parsed ParseResponse(const std::string& line, bool is_append) {
  Parsed p;
  auto v = pb::json::Parse(line);
  if (!v.ok()) {
    p.error = "unparsable response: " + line.substr(0, 200);
    return p;
  }
  if (!v->GetBool("ok")) {
    const pb::json::Value* e = v->Find("error");
    p.error = e ? e->GetString("code") + ": " + e->GetString("message")
                : "error envelope without an error";
    return p;
  }
  const pb::json::Value* r = v->Find("result");
  if (r == nullptr) {
    p.error = "response without a result";
    return p;
  }
  p.ok = true;
  p.table_rows = static_cast<size_t>(r->GetInt("table_rows"));
  if (is_append) return p;
  p.answer.objective = r->GetNumber("objective");
  p.proven = r->GetBool("proven_optimal");
  if (const pb::json::Value* pkg = r->Find("package")) {
    if (const pb::json::Value* rows = pkg->Find("rows")) {
      for (const auto& x : rows->items()) {
        p.answer.rows.push_back(static_cast<size_t>(x.as_int()));
      }
    }
    if (const pb::json::Value* mult = pkg->Find("multiplicity")) {
      for (const auto& x : mult->items()) p.answer.mult.push_back(x.as_int());
    }
  }
  if (const pb::json::Value* c = r->Find("counters")) {
    p.hit = c->GetBool("result_cache_hit");
    p.answer.num_candidates = static_cast<size_t>(c->GetInt("num_candidates"));
    p.table_rows = static_cast<size_t>(c->GetInt("table_rows"));
  }
  if (const pb::json::Value* t = r->Find("timings")) {
    p.parse_s = t->GetNumber("parse_seconds");
    p.solve_s = t->GetNumber("solve_seconds");
    p.total_s = t->GetNumber("total_seconds");
  }
  return p;
}

std::string QueryRequest(const std::string& paql) {
  return "{\"op\":\"query\",\"paql\":\"" + paql +
         "\",\"budget\":{\"max_nodes\":" + std::to_string(kMaxNodes) +
         ",\"time_limit_s\":60}}";
}

}  // namespace

RunResult RunServeMixed(const RunConfig& config) {
  RunResult result;
  Rng rng(config.seed);
  // Repeated texts read `recipes`, which nothing appends to, so their
  // cache entries stay fresh. Fresh queries read `new_recipes`, the table
  // the appends grow.
  HTable recipes = NewRecipes();
  GenerateRows(&recipes, kRecipes, &rng);
  HTable appended = NewRecipes();
  appended.name = "new_recipes";
  GenerateRows(&appended, kRecipes, &rng);
  const size_t initial_rows = appended.rows;
  const int cal = recipes.Col("calories");
  const int cost = recipes.Col("cost");

  // Six repeated texts: one per cuisine, gluten-free, a calorie ceiling
  // that leaves about forty candidates, and a calorie budget that three of
  // them always meet.
  auto smallest3 = [](const HTable& t, const std::vector<Pred>& where,
                      const char* col) {
    return KthSmallest(t, where, col, 1) + KthSmallest(t, where, col, 2) +
           KthSmallest(t, where, col, 3);
  };
  std::vector<QuerySpec> repeated;
  for (int i = 0; i < kRepeated; ++i) {
    const std::string cuisine = recipes.vocab[recipes.Col("cuisine")][i];
    std::vector<Pred> where = {Eq(recipes, "cuisine", cuisine),
                               Eq(recipes, "gluten", "free")};
    const double three = smallest3(recipes, where, "calories");
    Pred ceiling;
    ceiling.col = cal;
    ceiling.op = Pred::kLe;
    ceiling.num = Literal(KthSmallest(recipes, where, "calories", 40));
    where.push_back(ceiling);
    QuerySpec q;
    q.table = &recipes;
    q.where = where;
    q.such_that = {{-1, 3, 3},
                   {cal, -kInf, Literal(three + 0.5 * (3 * ceiling.num - three))}};
    q.objective = recipes.Col("protein");
    repeated.push_back(q);
  }
  // Fresh queries: any cuisine, a calorie ceiling leaving 24 to 36
  // candidates (seven levels, so a run averages over 70 candidate sets),
  // and a cost budget three of them always meet. The budget moves with
  // every query (the client loop below), so texts do not repeat while the
  // candidate sets stay put. Consecutive entries change the cuisine.
  std::vector<QuerySpec> fresh_base;
  for (size_t level = 24; level <= 36; level += 2) {
    for (const std::string& cuisine : appended.vocab[appended.Col("cuisine")]) {
      std::vector<Pred> where = {Eq(appended, "cuisine", cuisine)};
      Pred ceiling;
      ceiling.col = cal;
      ceiling.op = Pred::kLe;
      ceiling.num = Literal(KthSmallest(appended, where, "calories", level));
      where.push_back(ceiling);
      QuerySpec q;
      q.table = &appended;
      q.where = where;
      q.such_that = {{-1, 3, 3},
                     {cost, -kInf, smallest3(appended, where, "cost") + 1}};
      q.objective = appended.Col("rating");
      fresh_base.push_back(q);
    }
  }

  std::vector<std::string> argv = {config.pbserve, "--port", "0",
                                   "--threads", std::to_string(kServerThreads)};
  for (const HTable* t : {&recipes, &appended}) {
    const std::string csv = config.work_dir + "/" + t->name + ".csv";
    if (!WriteCsv(*t, csv)) {
      result.Wrong("cannot write " + csv);
      return result;
    }
    argv.insert(argv.end(), {"--load", csv + ":" + t->name});
  }
  ServerProcess server;
  const std::string err =
      server.Start(argv, config.work_dir + "/pbserve.log");
  const int port = err.empty() ? server.WaitListening(120.0) : -1;
  if (port <= 0) {
    result.Wrong("pbserve did not start " + err);
    return result;
  }
  std::vector<std::unique_ptr<Conn>> conns;
  for (int c = 0; c <= kQueryConnections; ++c) {
    conns.push_back(std::make_unique<Conn>());
    if (!conns.back()->Connect(port)) {
      result.Wrong("cannot connect to pbserve");
      return result;
    }
  }
  const double setup_s = static_cast<double>(NowNs()) * 1e-9 - config.start_ns * 1e-9;

  // ------------------------------------------------------ measured phase
  // Query connection c runs rounds of: every repeated text twice, then
  // one fresh query, and finishes its round when the time is up. The
  // append connection sends one append per period until the time is up.
  // Repeated ops get their spec after the phase.
  std::vector<std::string> repeated_requests;
  for (const QuerySpec& q : repeated) {
    repeated_requests.push_back(QueryRequest(q.Paql()));
  }
  std::vector<std::vector<ServeOp>> per_conn(kQueryConnections + 1);
  Rng append_rng(config.seed ^ 0x5eed0fa99e9dULL);
  RssSampler rss(std::to_string(server.pid()));
  const int64_t phase_start = NowNs();
  const int64_t phase_end =
      phase_start + static_cast<int64_t>(config.seconds * 1e9);
  auto call = [&](int c, ServeOp op) {
    const int64_t t0 = NowNs();
    op.response = conns[c]->Call(op.request);
    op.rtt = static_cast<double>(NowNs() - t0) * 1e-9;
    per_conn[c].push_back(std::move(op));
  };
  auto client = [&](int c) {
    std::vector<ServeOp> ops;
    for (int round = 0; NowNs() < phase_end; ++round) {
      for (int pass = 0; pass < 2; ++pass) {
        for (int i = 0; i < kRepeated; ++i) {
          ServeOp op;
          op.family = (i + c) % kRepeated;
          op.request = repeated_requests[op.family];
          ops.push_back(std::move(op));
        }
      }
      ServeOp fresh;
      fresh.kind = ServeOp::kFresh;
      fresh.family = (round + c) % static_cast<int>(fresh_base.size());
      fresh.spec = fresh_base[fresh.family];
      Constraint& budget = fresh.spec.such_that[1];
      budget.hi = Literal(
          budget.hi + 0.001 * ((round * kQueryConnections + c) % kFreshCycle));
      fresh.request = QueryRequest(fresh.spec.Paql());
      ops.push_back(std::move(fresh));
      for (ServeOp& op : ops) call(c, std::move(op));
      ops.clear();
    }
  };
  auto appender = [&] {
    for (int64_t period = phase_start; period < phase_end;
         period += kAppendPeriodNs) {
      const int64_t at =
          period + static_cast<int64_t>(append_rng.Unit() * kAppendPeriodNs);
      const int64_t wait = at - NowNs();
      if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
      ServeOp op;
      op.kind = ServeOp::kAppend;
      op.begin = appended.rows;
      GenerateRows(&appended, kAppendRows, &append_rng);
      op.end = appended.rows;
      op.request = "{\"op\":\"append\",\"table\":\"new_recipes\",\"rows\":" +
                   ToJsonRows(appended, op.begin, op.end) + "}";
      call(kQueryConnections, std::move(op));
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < kQueryConnections; ++c) threads.emplace_back(client, c);
  threads.emplace_back(appender);
  for (std::thread& t : threads) t.join();
  const double phase_s = static_cast<double>(NowNs() - phase_start) * 1e-9;
  const double peak_rss = rss.Stop();
  conns.clear();
  server.Stop();
  for (auto& ops : per_conn) {
    for (ServeOp& op : ops) {
      if (op.kind == ServeOp::kRepeated) op.spec = repeated[op.family];
    }
  }

  // --------------------------------------------------------------- checks
  struct Done {
    ServeOp* op;
    Parsed parsed;
  };
  std::vector<Done> done;
  for (auto& ops : per_conn) {
    for (ServeOp& op : ops) {
      done.push_back({&op, ParseResponse(op.response, op.kind == ServeOp::kAppend)});
    }
  }
  // Replay order: the size of the table each operation read or grew,
  // appends first. Repeated texts read `recipes`, which keeps its initial
  // size, so they come before the first append; they do not read the
  // table it grows.
  std::stable_sort(done.begin(), done.end(), [](const Done& a, const Done& b) {
    const bool aa = a.op->kind == ServeOp::kAppend;
    const bool ba = b.op->kind == ServeOp::kAppend;
    return a.parsed.table_rows != b.parsed.table_rows
               ? a.parsed.table_rows < b.parsed.table_rows
               : aa > ba;
  });

  AnswerChecker checker;
  std::vector<double> query_ms;
  std::vector<double> append_ms;
  std::vector<double> fresh_ms;  // texts new to the server: cold
  size_t acked = initial_rows;
  for (auto& ops : per_conn) {
    for (const ServeOp& op : ops) {
      if (op.kind == ServeOp::kAppend) {
        append_ms.push_back(op.rtt * 1e3);
        continue;
      }
      query_ms.push_back(op.rtt * 1e3);
      if (op.kind == ServeOp::kFresh) fresh_ms.push_back(op.rtt * 1e3);
    }
  }
  for (const Done& d : done) {
    ++result.attempted;
    const ServeOp& op = *d.op;
    if (!d.parsed.ok) {
      result.Failed(d.parsed.error);
      continue;
    }
    if (op.kind == ServeOp::kAppend) {
      acked += op.end - op.begin;
      if (d.parsed.table_rows != acked) {
        result.Wrong("append acknowledged " +
                     std::to_string(d.parsed.table_rows) + " rows, expected " +
                     std::to_string(acked));
      }
      continue;
    }
    if (!d.parsed.proven) {
      result.Failed("not proven optimal: " + op.request);
      continue;
    }
    const std::string e =
        checker.Check(op.spec, op.spec.Paql(), d.parsed.table_rows,
                      d.parsed.answer, d.parsed.proven, d.parsed.hit);
    if (!e.empty()) result.Wrong(e);
  }
  for (const std::string& e : checker.CheckCacheHits()) result.Wrong(e);
  if (acked != appended.rows) {
    result.Wrong("the server acknowledged " + std::to_string(acked) +
                 " rows, the harness sent " + std::to_string(appended.rows));
  }

  if (!config.trace) {
    result.Metric("setup_s", setup_s, "s");
    result.Metric("query_p50_ms", Median(query_ms), "ms");
    result.Metric("query_tail_ms", Percentile(query_ms, 0.99), "ms");
    // Queries only: the clock sets the appends' rate.
    result.Metric("ops_per_s", static_cast<double>(query_ms.size()) / phase_s,
                  "ops/s");
    result.Metric("cold_query_ms", Median(fresh_ms), "ms");
    result.Metric("append_p50_ms", Median(append_ms), "ms");
    result.Metric("approx_objective_ratio", checker.ObjectiveRatio(), "ratio");
    result.Metric("peak_rss_mb", peak_rss, "MB");
    return result;
  }

  // ------------------------------------------------------- traced replay
  // Every operation again, in the order of the table sizes they saw:
  // through HandleRequestLine against an in-process engine, and for each
  // miss through the layers themselves.
  Tracer tracer;
  pb::engine::EngineOptions options;
  options.num_threads = kServerThreads;
  pb::engine::Engine engine(options);
  pb::solver::MilpOptions milp = options.defaults.milp;
  milp.max_nodes = kMaxNodes;
  milp.time_limit_s = 60.0;
  LayerReplay replay(&tracer, false, 0, milp);
  for (const HTable* t : {&recipes, &appended}) {
    if (!engine.RegisterTable(ToDbTable(*t, 0, kRecipes)).ok() ||
        !replay.catalog()->Register(ToDbTable(*t, 0, kRecipes)).ok()) {
      result.Wrong("replay catalog");
      return result;
    }
  }
  LayerInputs in;
  double protocol = 0.0;
  double transport = 0.0;
  double wait = 0.0;
  double bytes = 0.0;
  double overhead = 0.0;
  double engine_total = 0.0;
  int64_t nq = 0;
  int64_t ntransport = 0;
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t op_id = 0;
  for (const Done& d : done) {
    const ServeOp& op = *d.op;
    if (!d.parsed.ok) continue;
    ++op_id;
    std::string line;
    const int64_t t0 = NowNs();
    {
      ScopedSpan root(&tracer, "op", op_id);
      ScopedSpan s(&tracer, "server.handle", op_id);
      line = pb::server::HandleRequestLine(&engine, op.request);
    }
    const double handle_s = static_cast<double>(NowNs() - t0) * 1e-9;
    if (op.kind == ServeOp::kAppend) {
      ++in.appends;
      wait += op.rtt - handle_s;
      const std::string e =
          replay.Append(appended.name, ToTuples(appended, op.begin, op.end), op_id);
      if (!e.empty()) result.Wrong("replay append: " + e);
      continue;
    }
    const Parsed mine = ParseResponse(line, false);
    ++nq;
    bytes += static_cast<double>(op.response.size());
    protocol += handle_s - mine.total_s;
    if (d.parsed.hit) {
      ++hits;
    } else {
      ++misses;
      overhead += d.parsed.total_s - d.parsed.parse_s - d.parsed.solve_s;
      engine_total += d.parsed.total_s;
    }
    if (d.parsed.hit && mine.hit) {
      transport += op.rtt - handle_s;
      ++ntransport;
    }
    const double tol = 1e-6 * std::max(1.0, std::fabs(d.parsed.answer.objective));
    if (!mine.ok || std::fabs(mine.answer.objective - d.parsed.answer.objective) > tol) {
      result.Wrong("in-process replay objective " +
                   std::to_string(mine.answer.objective) + " " + mine.error +
                   " differs from pbserve's " +
                   std::to_string(d.parsed.answer.objective));
    }
    if (!mine.hit) {
      const ReplayOutcome r = replay.Query(op.spec.Paql(), op_id);
      if (!r.found || std::fabs(r.objective - d.parsed.answer.objective) > tol) {
        result.Wrong("traced replay objective " + std::to_string(r.objective) +
                     " " + r.error + " differs from pbserve's " +
                     std::to_string(d.parsed.answer.objective));
      }
    }
  }
  in.self_seconds = tracer.SelfSeconds();
  in.counters = replay.counters();
  in.result_cache_hit_ratio = nq ? static_cast<double>(hits) / nq : 0.0;
  in.engine_overhead_s = misses ? overhead / misses : 0.0;
  in.engine_total_s = misses ? engine_total / misses : 0.0;
  in.append_wait_s = in.appends ? wait / in.appends : 0.0;
  in.protocol_s = nq ? protocol / nq : 0.0;
  in.transport_s = ntransport ? transport / ntransport : 0.0;
  in.response_bytes = nq ? bytes / nq : 0.0;
  EmitLayerMetrics(in, &result);
  const std::string path = config.trace_dir + "/spans-serve_mixed-" +
                           std::to_string(config.seed) + ".csv";
  if (!tracer.Write(path)) result.Wrong("cannot write " + path);
  return result;
}

}  // namespace e2e
