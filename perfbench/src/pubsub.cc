// pubsub_churn: the shipped tagmatch_server (2 shards) as a child process,
// driven over loopback by one thread holding three connections.
//
// Replicas are left out: with --replicas 2 the server lost 70-280 of about
// 20,000 required deliveries to one subscriber in runs under CPU contention,
// with or without --hedge-ms, and once aborted on std::future_error
// ("Promise already satisfied"). A workload that fails is no baseline.
//
// Connections A and B subscribe the first fifth of the database as strings
// (alternating). Connection C sends, in one ordered stream, PUB at kPubRate
// and churn of kChurnRate SUB plus kChurnRate UNSUB per second, drawn from
// interests outside that first fifth. Every delivery is checked against
// SubscriberOracle (src/oracle.h).
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cinttypes>
#include <climits>
#include <cstdio>
#include <deque>
#include <optional>

#include "src/common/stats.h"
#include "src/json_stats.h"
#include "src/net/wire.h"
#include "src/oracle.h"
#include "src/process.h"
#include "src/sig/signature_scheme.h"
#include "src/workload/tags.h"
#include "src/workloads.h"

namespace perfbench {

namespace {

using tagmatch::BitVector192;
using tagmatch::now_ns;
using tagmatch::workload::TagId;

constexpr double kPubRate = 2000;
constexpr double kChurnRate = 200;
constexpr size_t kMessagePool = 4096;
constexpr uint64_t kMessageSalt = 0x6d736773;  // "msgs"
constexpr size_t kInitialChurn = 1000;
constexpr unsigned kSetupReps = 9;
constexpr double kWarmupS = 1.0;
// Length of the traced phase of a traced run.
constexpr double kTracedSeconds = 10;
constexpr double kStatsPollS = 0.25;
constexpr int64_t kUnsubGraceNs = 1'000'000'000;
constexpr int64_t kDrainNs = 5'000'000'000;
constexpr int64_t kSetupTimeoutNs = 60'000'000'000;
constexpr double kMaxLatenessMs = 10.0;  // See match.cc.
constexpr double kMinRateShare = 0.99;
const std::vector<std::string> kServerFlags = {"--shards", "2"};
constexpr int kChurner = 2;  // Connections 0 and 1 are the static subscribers.

struct Interest {
  std::string csv;
  BitVector192 sig;
  std::vector<TagId> tags;  // Sorted, unique.
};

Interest make_interest(std::vector<TagId> tags, const tagmatch::sig::SignatureScheme& scheme) {
  std::vector<std::string> names;
  for (TagId t : tags) {
    names.push_back(tagmatch::workload::tag_name(t));
  }
  std::sort(tags.begin(), tags.end());
  tags.erase(std::unique(tags.begin(), tags.end()), tags.end());
  return Interest{tagmatch::net::format_tags(names), scheme.encode(names), std::move(tags)};
}

// Everything a run sends, built once, with the static subscribers' expected
// deliveries per message.
struct Corpus {
  std::vector<Interest> subscribed;  // The first fifth; even -> A, odd -> B.
  std::vector<Interest> churn;       // From outside the first fifth.
  std::vector<Interest> messages;
  std::vector<uint8_t> expected[2];  // Per message: A / B must receive it.
  std::vector<uint8_t> exact[2];     // ... and one match is an exact subset.
};

Corpus make_corpus(const Dataset& data, uint64_t seed, double seconds) {
  const auto& scheme = tagmatch::sig::resolve(nullptr);
  Corpus c;
  const size_t fifth = data.db.size() / 5;
  SubscriberOracle oracle[2];
  for (size_t i = 0; i < fifth; ++i) {
    c.subscribed.push_back(make_interest(data.db[i].tags, scheme));
    oracle[i % 2].subscribe(static_cast<uint32_t>(i / 2), c.subscribed.back().sig,
                            c.subscribed.back().tags);
  }
  // Enough churn interests for two phases and the traced pass, never reused
  // within one server's lifetime.
  const size_t churn = std::min(data.db.size() - fifth,
                                kInitialChurn + static_cast<size_t>(kChurnRate * (2 * (seconds + kWarmupS) + 4)));
  for (size_t i = 0; i < churn; ++i) {
    c.churn.push_back(make_interest(data.db[fifth + i].tags, scheme));
  }
  const QueryPool pool = make_query_pool(data, seed ^ kMessageSalt, kMessagePool, 0, fifth);
  for (const auto& tags : pool.tags) {
    c.messages.push_back(make_interest(tags, scheme));
    for (int s = 0; s < 2; ++s) {
      const auto m = oracle[s].matches(c.messages.back().sig);
      c.expected[s].push_back(m.empty() ? 0 : 1);
      c.exact[s].push_back(oracle[s].exact(m, c.messages.back().tags) ? 1 : 0);
    }
  }
  return c;
}

// One publish of a phase.
struct PubRecord {
  uint32_t message = 0;
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  int64_t ack_ns = 0;  // 0 = no reply yet.
  bool ack_ok = false;
  std::vector<uint32_t> churn_matches;  // C's subscriptions that matched when sent.
  int64_t arrival_ns[3] = {0, 0, 0};
  uint32_t duplicates = 0;
};

struct PhaseResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t deliveries = 0;
  uint64_t false_positives = 0;
  uint64_t optional = 0;  // Deliveries the oracle allowed but did not require.
  // Failure breakdown, per connection A, B, C where it applies.
  uint64_t missing[3] = {0, 0, 0};
  uint64_t unexpected[3] = {0, 0, 0};
  uint64_t duplicated = 0;
  uint64_t unacked = 0;  // PUB without OK (rejected or never answered).
  // Fully delivered publishes by completion time, and latency per
  // (publish, subscriber) delivery by due time.
  MeasuredWindow window;
  tagmatch::SampleSet full_delivery_ms;  // Per delivered publish: PUB due to last delivery.
  tagmatch::SampleSet ack_ms;      // PUB -> OK at the client.
  tagmatch::SampleSet lateness_ms;
  double sent_rate = 0;
  double stats_interval_s = 0;  // Between the two STATS snapshots.
  std::optional<tagmatch::obs::MetricsSnapshot> before, after;
  ProcStatus peak;

  explicit PhaseResult(double seconds) : window(seconds) {}
  bool generator_ok() const {
    return lateness_ms.count() > 0 && lateness_ms.percentile(99) <= kMaxLatenessMs &&
           sent_rate >= kMinRateShare * kPubRate;
  }
};

// One tagmatch_server and the three connections to it.
class Session {
 public:
  Session(const Corpus& corpus, const Options& opt) : corpus_(corpus), opt_(opt) {
    churn_server_id_.assign(corpus.churn.size(), 0);
    churn_sub_ns_.assign(corpus.churn.size(), 0);
    churn_unsub_ns_.assign(corpus.churn.size(), INT64_MAX);
  }
  ~Session() {
    for (auto& c : conns_) {
      if (c.fd >= 0) {
        ::close(c.fd);
      }
    }
    server_.stop(std::chrono::seconds(10));
  }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // Spawns the server and subscribes everything; `setup_s` is the time from
  // spawn to the last subscription acknowledged.
  bool start(double* setup_s);
  PhaseResult phase(double seconds, bool traced);

 private:
  enum class OpKind { kPub, kSub, kUnsub, kStats, kStatsPoll };
  struct Pending {
    OpKind kind;
    uint64_t index;
  };
  struct Conn {
    int fd = -1;
    std::string in;
    std::string out;
    std::deque<Pending> replies;
  };
  struct Op {
    int64_t due_ns;
    OpKind kind;
  };

  bool connect_all(uint16_t port);
  void send(int conn, const std::string& line, Pending pending);
  void flush(int conn);
  void pump(int64_t deadline_ns);
  void on_line(int conn, std::string_view line, int64_t now);
  bool replies_pending() const;
  bool churn_subscribe();
  bool churn_unsubscribe(int64_t now);
  uint64_t missing_required() const;
  // First churn id whose SUB was sent after `t`.
  uint32_t churn_subscribed_after(int64_t t) const {
    return static_cast<uint32_t>(
        std::upper_bound(churn_sub_ns_.begin(), churn_sub_ns_.begin() + next_churn_, t) -
        churn_sub_ns_.begin());
  }

  const Corpus& corpus_;
  const Options& opt_;
  ChildProcess server_;
  Conn conns_[3];
  bool broken_ = false;
  uint64_t errors_ = 0;  // ERR replies and unparseable frames.

  SubscriberOracle churn_oracle_;
  std::vector<uint32_t> churn_server_id_;  // 0 = not acknowledged yet.
  std::vector<int64_t> churn_sub_ns_;  // When each SUB was sent, in id order.
  std::vector<int64_t> churn_unsub_ns_;
  std::deque<uint32_t> churn_live_;  // In subscribe order.
  size_t next_churn_ = 0;

  uint64_t next_pub_ = 0;  // Payload sequence number, unique per server.
  uint64_t pub_base_ = 0;
  std::vector<PubRecord> pubs_;
  std::vector<std::string> stats_;  // Replies to kStats, in order.
};

bool Session::start(double* setup_s) {
  tagmatch::StopWatch watch;
  std::vector<std::string> argv = {opt_.server_path, "0"};
  argv.insert(argv.end(), kServerFlags.begin(), kServerFlags.end());
  if (!server_.start(argv)) {
    std::fprintf(stderr, "cannot start %s\n", opt_.server_path.c_str());
    return false;
  }
  const auto banner = server_.read_line(std::chrono::seconds(30));
  unsigned port = 0;
  if (!banner || std::sscanf(banner->c_str(), "tagmatch_server listening on 127.0.0.1:%u",
                             &port) != 1 ||
      !connect_all(static_cast<uint16_t>(port))) {
    std::fprintf(stderr, "tagmatch_server did not come up\n");
    return false;
  }
  for (size_t i = 0; i < corpus_.subscribed.size(); ++i) {
    send(static_cast<int>(i % 2), "SUB " + corpus_.subscribed[i].csv + "\n",
         {OpKind::kSub, i});
  }
  for (size_t i = 0; i < kInitialChurn; ++i) {
    churn_subscribe();
  }
  const int64_t deadline = now_ns() + kSetupTimeoutNs;
  while (replies_pending() && !broken_ && now_ns() < deadline) {
    pump(now_ns() + 10'000'000);
  }
  *setup_s = watch.elapsed_s();
  return !replies_pending() && !broken_ && errors_ == 0;
}

bool Session::connect_all(uint16_t port) {
  for (auto& c : conns_) {
    c.fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (c.fd < 0 || ::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      return false;
    }
    int one = 1;
    ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
  }
  return true;
}

void Session::send(int conn, const std::string& line, Pending pending) {
  conns_[conn].out += line;
  conns_[conn].replies.push_back(pending);
  flush(conn);
}

void Session::flush(int conn) {
  Conn& c = conns_[conn];
  size_t off = 0;
  while (off < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + off, c.out.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      broken_ = broken_ || (errno != EAGAIN && errno != EWOULDBLOCK);
      break;
    }
    off += static_cast<size_t>(n);
  }
  c.out.erase(0, off);
}

void Session::pump(int64_t deadline_ns) {
  pollfd fds[3];
  for (int i = 0; i < 3; ++i) {
    fds[i] = {conns_[i].fd,
              static_cast<short>(POLLIN | (conns_[i].out.empty() ? 0 : POLLOUT)), 0};
  }
  const int64_t wait = std::max<int64_t>(0, deadline_ns - now_ns());
  const timespec ts{static_cast<time_t>(wait / 1'000'000'000), static_cast<long>(wait % 1'000'000'000)};
  if (::ppoll(fds, 3, &ts, nullptr) <= 0) {
    return;
  }
  for (int i = 0; i < 3; ++i) {
    if (fds[i].revents & POLLOUT) {
      flush(i);
    }
    if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) {
      continue;
    }
    char chunk[65536];
    for (;;) {
      const ssize_t n = ::recv(conns_[i].fd, chunk, sizeof chunk, 0);
      if (n <= 0) {
        broken_ = broken_ || n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK);
        break;
      }
      const int64_t now = now_ns();
      std::string& in = conns_[i].in;
      in.append(chunk, static_cast<size_t>(n));
      size_t start = 0;
      for (size_t nl; (nl = in.find('\n', start)) != std::string::npos; start = nl + 1) {
        on_line(i, std::string_view(in).substr(start, nl - start), now);
      }
      in.erase(0, start);
    }
  }
}

void Session::on_line(int conn, std::string_view line, int64_t now) {
  using Kind = tagmatch::net::ServerFrame::Kind;
  const auto frame = tagmatch::net::parse_server_frame(line);
  if (!frame) {
    ++errors_;
    return;
  }
  if (frame->kind == Kind::kMsg) {
    uint64_t seq = 0;
    if (std::sscanf(frame->payload.c_str(), "m%" SCNu64, &seq) == 1 && seq >= pub_base_ &&
        seq - pub_base_ < pubs_.size()) {
      PubRecord& p = pubs_[seq - pub_base_];
      if (p.arrival_ns[conn] != 0) {
        ++p.duplicates;
      } else {
        p.arrival_ns[conn] = now;
      }
    }
    return;
  }
  Conn& c = conns_[conn];
  if (c.replies.empty()) {
    ++errors_;
    return;
  }
  const Pending pending = c.replies.front();
  c.replies.pop_front();
  const bool ok = frame->kind == Kind::kOk || frame->kind == Kind::kStats;
  errors_ += ok || pending.kind == OpKind::kPub ? 0 : 1;
  switch (pending.kind) {
    case OpKind::kPub:
      if (pending.index >= pub_base_ && pending.index - pub_base_ < pubs_.size()) {
        pubs_[pending.index - pub_base_].ack_ns = now;
        pubs_[pending.index - pub_base_].ack_ok = ok;
      }
      break;
    case OpKind::kSub:
      if (conn == kChurner && ok) {
        churn_server_id_[pending.index] = frame->id;
      }
      break;
    case OpKind::kStats:
      stats_.push_back(frame->payload);
      break;
    case OpKind::kUnsub:
    case OpKind::kStatsPoll:
      break;
  }
}

bool Session::replies_pending() const {
  return std::any_of(std::begin(conns_), std::end(conns_),
                     [](const Conn& c) { return !c.replies.empty(); });
}

bool Session::churn_subscribe() {
  if (next_churn_ >= corpus_.churn.size()) {
    return false;
  }
  const auto idx = static_cast<uint32_t>(next_churn_++);
  const Interest& in = corpus_.churn[idx];
  churn_oracle_.subscribe(idx, in.sig, in.tags);
  churn_sub_ns_[idx] = now_ns();
  churn_live_.push_back(idx);
  send(kChurner, "SUB " + in.csv + "\n", {OpKind::kSub, idx});
  return true;
}

bool Session::churn_unsubscribe(int64_t now) {
  if (churn_live_.empty() || churn_server_id_[churn_live_.front()] == 0) {
    return false;
  }
  const uint32_t idx = churn_live_.front();
  churn_live_.pop_front();
  churn_oracle_.unsubscribe(idx);
  churn_unsub_ns_[idx] = now;
  send(kChurner, "UNSUB " + std::to_string(churn_server_id_[idx]) + "\n",
       {OpKind::kUnsub, idx});
  return true;
}

uint64_t Session::missing_required() const {
  uint64_t missing = 0;
  for (const PubRecord& p : pubs_) {
    for (int s = 0; s < 2; ++s) {
      missing += corpus_.expected[s][p.message] && p.arrival_ns[s] == 0 ? 1 : 0;
    }
    missing += p.arrival_ns[kChurner] == 0 &&
                       delivery_verdict(p.churn_matches, churn_unsub_ns_, p.sent_ns,
                                        kUnsubGraceNs) == DeliveryVerdict::kRequired
                   ? 1
                   : 0;
  }
  return missing;
}

PhaseResult Session::phase(double seconds, bool traced) {
  PhaseResult r(seconds);
  const int64_t t0 = now_ns() + 2'000'000;
  const int64_t w0 = t0 + static_cast<int64_t>(kWarmupS * 1e9);
  const int64_t w1 = w0 + static_cast<int64_t>(seconds * 1e9);
  auto at = [t0](double s) { return t0 + static_cast<int64_t>(s * 1e9); };
  std::vector<Op> ops;
  const double span_s = kWarmupS + seconds;
  for (size_t k = 0; k < static_cast<size_t>(span_s * kPubRate); ++k) {
    ops.push_back({at(static_cast<double>(k) / kPubRate), OpKind::kPub});
  }
  for (size_t j = 0; j < static_cast<size_t>(span_s * kChurnRate); ++j) {
    ops.push_back({at((static_cast<double>(j) + 0.25) / kChurnRate), OpKind::kSub});
    ops.push_back({at((static_cast<double>(j) + 0.75) / kChurnRate), OpKind::kUnsub});
  }
  if (traced) {
    ops.push_back({w0, OpKind::kStats});
    for (double s = 0; s < span_s; s += kStatsPollS) {
      ops.push_back({at(s), OpKind::kStatsPoll});
    }
  }
  std::stable_sort(ops.begin(), ops.end(),
                   [](const Op& a, const Op& b) { return a.due_ns < b.due_ns; });

  pubs_.clear();
  pub_base_ = next_pub_;
  stats_.clear();
  const uint64_t errors_before = errors_;
  uint64_t sent_in_window = 0;
  int64_t stats_before_ns = 0;
  reset_peak_rss(server_.pid());
  PeakSampler sampler(server_.pid());
  for (size_t next = 0; next < ops.size() && !broken_;) {
    const int64_t now = now_ns();
    for (; next < ops.size() && ops[next].due_ns <= now; ++next) {
      const Op& op = ops[next];
      switch (op.kind) {
        case OpKind::kPub: {
          const uint64_t seq = next_pub_++;
          PubRecord p;
          p.message = static_cast<uint32_t>(seq % corpus_.messages.size());
          p.due_ns = op.due_ns;
          p.sent_ns = now;
          const Interest& m = corpus_.messages[p.message];
          p.churn_matches = churn_oracle_.matches(m.sig);
          pubs_.push_back(std::move(p));
          std::string line = "PUB " + m.csv + " ";
          if (traced) {
            char tp[80];
            std::snprintf(tp, sizeof tp, "traceparent=00-%016" PRIx64 "%016" PRIx64 "-%016" PRIx64
                          "-01 ", uint64_t{0}, tagmatch::mix64(seq) | 1,
                          tagmatch::mix64(seq ^ 0xabcdef) | 1);
            line += tp;
          }
          line += "m" + std::to_string(seq) + "\n";
          send(kChurner, line, {OpKind::kPub, seq});
          ++r.attempted;
          if (op.due_ns >= w0 && op.due_ns < w1) {
            r.lateness_ms.record(static_cast<double>(now - op.due_ns) / 1e6);
            sent_in_window += now < w1 ? 1 : 0;
          }
          break;
        }
        case OpKind::kSub:
          r.attempted += churn_subscribe() ? 1 : 0;
          break;
        case OpKind::kUnsub:
          r.attempted += churn_unsubscribe(now) ? 1 : 0;
          break;
        case OpKind::kStats:
          stats_before_ns = now;
          send(kChurner, "STATS\n", {OpKind::kStats, 0});
          break;
        case OpKind::kStatsPoll:
          send(kChurner, "STATS\n", {OpKind::kStatsPoll, 0});
          break;
      }
    }
    if (next < ops.size()) {
      pump(ops[next].due_ns);
    }
  }
  const int64_t drain_deadline = now_ns() + kDrainNs;
  while (!broken_ && now_ns() < drain_deadline &&
         (replies_pending() || missing_required() > 0)) {
    pump(std::min(drain_deadline, now_ns() + 10'000'000));
  }
  if (traced && !broken_) {
    r.stats_interval_s = static_cast<double>(now_ns() - stats_before_ns) / 1e9;
    send(kChurner, "STATS\n", {OpKind::kStats, 0});
    const int64_t deadline = now_ns() + 10'000'000'000;
    while (!broken_ && replies_pending() && now_ns() < deadline) {
      pump(now_ns() + 10'000'000);
    }
    if (stats_.size() == 2) {
      r.before = parse_stats_json(stats_[0]);
      r.after = parse_stats_json(stats_[1]);
    }
  }
  r.peak = sampler.finish();
  r.sent_rate = static_cast<double>(sent_in_window) / seconds;

  // Judge every publish against the oracle.
  for (const PubRecord& p : pubs_) {
    bool ok = p.ack_ok && p.duplicates == 0;
    r.unacked += p.ack_ok ? 0 : 1;
    r.duplicated += p.duplicates;
    int64_t last_arrival = 0;
    for (int s = 0; s < 3; ++s) {
      DeliveryVerdict v;
      bool exact = false;
      if (s < kChurner) {
        v = corpus_.expected[s][p.message] ? DeliveryVerdict::kRequired
                                           : DeliveryVerdict::kForbidden;
        exact = corpus_.exact[s][p.message] != 0;
      } else {
        v = delivery_verdict(p.churn_matches, churn_unsub_ns_, p.sent_ns, kUnsubGraceNs);
        if (v == DeliveryVerdict::kForbidden && p.arrival_ns[s] != 0 &&
            churn_oracle_.any_matches(churn_subscribed_after(p.sent_ns),
                                      churn_subscribed_after(p.sent_ns + kUnsubGraceNs),
                                      corpus_.messages[p.message].sig)) {
          v = DeliveryVerdict::kOptional;  // Subscribed just after the PUB.
        }
        exact = churn_oracle_.exact(p.churn_matches, corpus_.messages[p.message].tags);
      }
      const bool delivered = p.arrival_ns[s] != 0;
      const bool missing = v == DeliveryVerdict::kRequired && !delivered;
      const bool unexpected = v == DeliveryVerdict::kForbidden && delivered;
      r.missing[s] += missing ? 1 : 0;
      r.unexpected[s] += unexpected ? 1 : 0;
      ok = ok && !missing && !unexpected;
      if (!delivered) {
        continue;
      }
      ++r.deliveries;
      r.false_positives += exact ? 0 : 1;
      r.optional += v == DeliveryVerdict::kOptional ? 1 : 0;
      last_arrival = std::max(last_arrival, p.arrival_ns[s]);
      r.window.record_latency(p.due_ns - w0, p.arrival_ns[s] - p.due_ns);
    }
    r.failed += ok ? 0 : 1;
    if (ok) {
      r.window.record_completion(std::max(p.ack_ns, last_arrival) - w0);
    }
    if (last_arrival != 0 && p.due_ns >= w0 && p.due_ns < w1) {
      r.full_delivery_ms.record(static_cast<double>(last_arrival - p.due_ns) / 1e6);
    }
    if (p.ack_ns != 0 && p.due_ns >= w0 && p.due_ns < w1) {
      r.ack_ms.record(static_cast<double>(p.ack_ns - p.sent_ns) / 1e6);
    }
  }
  r.failed += errors_ - errors_before;
  if (broken_) {
    std::fprintf(stderr, "connection to tagmatch_server lost\n");
    r.failed = std::max<uint64_t>(r.failed, 1);
  }
  return r;
}

// Serving-layer metrics from a traced phase and its two STATS snapshots.
void serving_metrics(const PhaseResult& t, Metrics& out) {
  const auto& before = *t.before;
  const auto& after = *t.after;
  auto delta = [&](const char* name) {
    return static_cast<double>(counter_delta(before, after, name));
  };
  auto hist = [&](const char* name) { return histogram_delta(before, after, name); };
  out["sig.false_positive_frac"] = {
      t.deliveries ? static_cast<double>(t.false_positives) / static_cast<double>(t.deliveries)
                   : 0,
      "fraction", t.deliveries};
  out["epoch.reclaimed"] = {delta("epoch.reclaimed"), "count", 0};
  out["engine.stale_snapshot_batches"] = {delta("engine.stale_snapshot_batches"), "count", 0};
  const auto gather = hist("stage.gather_ns");
  out["shard.gather_ms_p50"] = {gather.percentile(50) / 1e6, "ms", gather.count};
  out["shard.gather_ms_p99"] = {gather.percentile(99) / 1e6, "ms", gather.count};
  out["shard.partial_results"] = {delta("shard.partial_results"), "count", 0};
  const auto consolidate = hist("stage.consolidate_ns");
  out["shard.consolidate_s"] = {consolidate.percentile(50) / 1e9, "s", consolidate.count};
  const auto publish = hist("broker.publish_latency_ns");
  out["broker.publish_latency_ms_p50"] = {publish.percentile(50) / 1e6, "ms", publish.count};
  out["broker.publish_latency_ms_p99"] = {publish.percentile(99) / 1e6, "ms", publish.count};
  out["broker.consolidations_per_s"] = {delta("broker.consolidations") / t.stats_interval_s,
                                        "1/s", 0};
  out["broker.dropped"] = {delta("broker.dropped"), "count", 0};
  out["net.pub_ack_ms_p50"] = {t.ack_ms.percentile(50), "ms", t.ack_ms.count()};
  out["net.pub_ack_ms_p99"] = {t.ack_ms.percentile(99), "ms", t.ack_ms.count()};
  // Means, not p50s: the registry's p50 is interpolated inside a 2x bucket,
  // its mean is exact.
  out["net.wire_share"] = {1 - publish.mean() / 1e6 / t.full_delivery_ms.mean(), "fraction",
                           t.full_delivery_ms.count()};
}

void print_phase(const char* name, const PhaseResult& r) {
  std::printf("%s: %" PRIu64 " ops, %" PRIu64 " failed, %" PRIu64 " deliveries (%" PRIu64
              " optional, %" PRIu64 " Bloom false positives)\n",
              name, r.attempted, r.failed, r.deliveries, r.optional, r.false_positives);
  if (r.failed > 0) {
    std::printf("  missing A/B/C %" PRIu64 "/%" PRIu64 "/%" PRIu64 ", unexpected A/B/C %" PRIu64
                "/%" PRIu64 "/%" PRIu64 ", duplicated %" PRIu64 ", unacknowledged %" PRIu64 "\n",
                r.missing[0], r.missing[1], r.missing[2], r.unexpected[0], r.unexpected[1],
                r.unexpected[2], r.duplicated, r.unacked);
  }
}

}  // namespace

bool pubsub_layer_pass(const Options& opt, const Dataset& data, double seconds, Metrics& out) {
  const Corpus corpus = make_corpus(data, opt.seed, seconds);
  Session session(corpus, opt);
  double setup_s = 0;
  if (!session.start(&setup_s)) {
    return false;
  }
  const PhaseResult t = session.phase(seconds, /*traced=*/true);
  print_phase("pub/sub layer pass", t);
  if (!t.before || !t.after) {
    return false;
  }
  serving_metrics(t, out);
  return t.failed == 0;
}

RunResult run_pubsub(const Options& opt, const Dataset& data) {
  RunResult r;
  tagmatch::StopWatch corpus_watch;
  const Corpus corpus = make_corpus(data, opt.seed, opt.seconds);
  std::printf("corpus: %zu subscriptions, %zu churn interests, %zu messages in %.2f s\n",
              corpus.subscribed.size(), corpus.churn.size(), corpus.messages.size(),
              corpus_watch.elapsed_s());
  std::string flags;
  for (const auto& f : kServerFlags) {
    flags += " " + f;
  }
  r.record["server"] = "tagmatch_server 0" + flags;
  r.record["scheme"] = std::string(tagmatch::sig::resolve(nullptr).name());
  r.record["subscriptions"] = std::to_string(corpus.subscribed.size()) + " on 2 connections";
  r.record["rate"] = std::to_string(static_cast<int>(kPubRate)) + " PUB/s + " +
                     std::to_string(static_cast<int>(kChurnRate)) + " SUB/s + " +
                     std::to_string(static_cast<int>(kChurnRate)) + " UNSUB/s on one connection";
  r.record["batch_timeout_ms"] = "20 (broker default)";

  tagmatch::SampleSet setup_s;
  std::unique_ptr<Session> session;
  for (unsigned rep = 0; rep < kSetupReps; ++rep) {
    session.reset();
    session = std::make_unique<Session>(corpus, opt);
    double s = 0;
    if (!session->start(&s)) {
      r.correct = false;
      r.attempted = 1;
      r.failed = 1;
      return r;
    }
    setup_s.record(s);
  }
  const PhaseResult p = session->phase(opt.seconds, /*traced=*/false);
  print_phase("phase", p);
  r.attempted = p.attempted + corpus.subscribed.size() + kInitialChurn;
  r.failed = p.failed;
  r.correct = r.failed == 0;
  r.extra["failed_frac"] = {static_cast<double>(r.failed) / static_cast<double>(r.attempted),
                            "fraction", r.attempted};
  r.extra["generator_lateness_p99_ms"] = {p.lateness_ms.percentile(99), "ms",
                                          p.lateness_ms.count()};
  r.extra["generator_lateness_max_ms"] = {p.lateness_ms.percentile(100), "ms",
                                          p.lateness_ms.count()};
  r.extra["offered_pub_per_s"] = {kPubRate, "1/s", 0};
  r.extra["sent_pub_per_s"] = {p.sent_rate, "1/s", 0};
  r.extra["deliveries"] = {static_cast<double>(p.deliveries), "count", 0};
  r.extra["generator_behind"] = {p.generator_ok() ? 0.0 : 1.0, "bool", 0};
  if (!p.generator_ok()) {
    std::printf("INVALID: the generator fell behind its schedule; the latencies below "
                "measure the generator as much as the server\n");
  }
  const double p50 = p.window.latency_ms(50);
  if (!opt.trace) {
    r.metrics["throughput_qps"] = {p.window.throughput(), "1/s", p.window.completions()};
    r.metrics["latency_p50_ms"] = {p50, "ms", p.window.samples()};
    r.metrics["latency_p99_ms"] = {p.window.latency_ms(99), "ms", p.window.samples()};
    r.metrics["setup_s"] = {setup_s.percentile(50), "s", setup_s.count()};
    r.metrics["rss_mb"] = {p.peak.peak_rss_mb, "MB", 0};
    r.metrics["threads"] = {static_cast<double>(p.peak.threads), "count", 0};
    return r;
  }

  const PhaseResult t = session->phase(std::min(opt.seconds, kTracedSeconds), /*traced=*/true);
  print_phase("traced phase", t);
  r.attempted += t.attempted;
  r.failed += t.failed;
  session.reset();
  if (!t.before || !t.after) {
    r.correct = false;
    return r;
  }
  const double traced_p50 = t.window.latency_ms(50);
  serving_metrics(t, r.metrics);
  engine_registry_metrics(*t.before, *t.after, traced_p50, r.metrics);
  r.metrics["trace_overhead_frac"] = {(traced_p50 - p50) / p50, "fraction", 0};
  in_process_engine_probes(data, opt.seed, r);
  r.correct = r.correct && r.failed == 0;
  return r;
}

}  // namespace perfbench
