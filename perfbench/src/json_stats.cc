#include "src/json_stats.h"

#include <cctype>
#include <cstdlib>
#include <string>

namespace perfbench {

namespace {

using tagmatch::obs::HistogramSnapshot;
using tagmatch::obs::MetricsSnapshot;

// Recursive-descent reader over the subset of JSON that to_json emits:
// objects, arrays, strings without escapes beyond \" and \\, and numbers.
class Reader {
 public:
  explicit Reader(std::string_view s) : s_(s) {}

  bool ok() const { return ok_; }

  void ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool eat(char c) {
    ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  void expect(char c) {
    if (!eat(c)) {
      ok_ = false;
    }
  }
  std::string string() {
    std::string out;
    expect('"');
    while (ok_ && pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\' && pos_ + 1 < s_.size()) {
        ++pos_;
      }
      out.push_back(s_[pos_++]);
    }
    expect('"');
    return out;
  }
  double number() {
    ws();
    const std::string token(s_.substr(pos_, std::min<size_t>(32, s_.size() - pos_)));
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == token.c_str()) {
      ok_ = false;
      return 0;
    }
    pos_ += static_cast<size_t>(end - token.c_str());
    return v;
  }
  void skip() {
    ws();
    if (pos_ >= s_.size()) {
      ok_ = false;
    } else if (s_[pos_] == '"') {
      string();
    } else if (s_[pos_] == '{') {
      object([this](const std::string&) { skip(); });
    } else if (s_[pos_] == '[') {
      array([this] { skip(); });
    } else if (std::isalpha(static_cast<unsigned char>(s_[pos_]))) {
      while (pos_ < s_.size() && std::isalpha(static_cast<unsigned char>(s_[pos_]))) {
        ++pos_;
      }
    } else {
      number();
    }
  }
  template <typename Fn>
  void object(Fn&& member) {
    expect('{');
    if (eat('}')) {
      return;
    }
    do {
      const std::string key = string();
      expect(':');
      if (!ok_) {
        return;
      }
      member(key);
    } while (ok_ && eat(','));
    expect('}');
  }
  template <typename Fn>
  void array(Fn&& element) {
    expect('[');
    if (eat(']')) {
      return;
    }
    do {
      element();
    } while (ok_ && eat(','));
    expect(']');
  }

 private:
  std::string_view s_;
  size_t pos_ = 0;
  bool ok_ = true;
};

HistogramSnapshot read_histogram(Reader& r) {
  HistogramSnapshot h;
  r.object([&](const std::string& key) {
    if (key == "count") {
      h.count = static_cast<uint64_t>(r.number());
    } else if (key == "sum") {
      h.sum = static_cast<uint64_t>(r.number());
    } else if (key == "min") {
      h.min = static_cast<uint64_t>(r.number());
    } else if (key == "max") {
      h.max = static_cast<uint64_t>(r.number());
    } else if (key == "buckets") {
      r.array([&] {
        double pair[2] = {0, 0};
        int n = 0;
        r.array([&] {
          const double v = r.number();
          if (n < 2) {
            pair[n++] = v;
          }
        });
        const auto index = static_cast<size_t>(pair[0]);
        if (n == 2 && index < h.buckets.size()) {
          h.buckets[index] = static_cast<uint64_t>(pair[1]);
        }
      });
    } else {
      r.skip();
    }
  });
  return h;
}

}  // namespace

std::optional<MetricsSnapshot> parse_stats_json(std::string_view json) {
  MetricsSnapshot snap;
  Reader r(json);
  r.object([&](const std::string& section) {
    if (section == "counters") {
      r.object([&](const std::string& name) {
        snap.counters[name] = static_cast<uint64_t>(r.number());
      });
    } else if (section == "gauges") {
      r.object([&](const std::string& name) {
        snap.gauges[name] = static_cast<int64_t>(r.number());
      });
    } else if (section == "histograms") {
      r.object([&](const std::string& name) { snap.histograms[name] = read_histogram(r); });
    } else {
      r.skip();
    }
  });
  if (!r.ok()) {
    return std::nullopt;
  }
  return snap;
}

uint64_t counter_delta(const MetricsSnapshot& before, const MetricsSnapshot& after,
                       const std::string& name) {
  auto a = after.counters.find(name);
  if (a == after.counters.end()) {
    return 0;
  }
  auto b = before.counters.find(name);
  return tagmatch::obs::counter_delta(a->second, b == before.counters.end() ? 0 : b->second);
}

HistogramSnapshot histogram_delta(const MetricsSnapshot& before, const MetricsSnapshot& after,
                                  const std::string& name) {
  auto a = after.histograms.find(name);
  if (a == after.histograms.end()) {
    return {};
  }
  auto b = before.histograms.find(name);
  return tagmatch::obs::histogram_delta(
      a->second, b == before.histograms.end() ? HistogramSnapshot{} : b->second);
}

}  // namespace perfbench
