#include "span.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <stdexcept>

#include "harness/harness.hpp"

namespace e2e {

namespace {

std::string layer_of(const char* name) {
  const std::string s(name);
  return s.substr(0, s.find('.'));
}

/// ns as decimal microseconds with exactly three fraction digits, so the
/// exported timestamps are the recorded integers, not rounded doubles.
std::string micros(std::int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  return buf;
}

}  // namespace

const FoldRow& Fold::span(const std::string& name) const {
  static const FoldRow kEmpty;
  const auto it = spans.find(name);
  return it == spans.end() ? kEmpty : it->second;
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

std::int64_t Tracer::now_ns() const noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

Tracer::Buffer& Tracer::local() {
  thread_local Buffer* mine = nullptr;
  if (mine == nullptr) {
    std::lock_guard lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    mine = buffers_.back().get();
    mine->tid = static_cast<std::uint32_t>(buffers_.size() - 1);
    // Pre-sized so a push_back inside a span rarely allocates (and so
    // rarely shows up in the enclosing span's allocation count).
    mine->spans.reserve(std::size_t{1} << 16);
  }
  return *mine;
}

Tracer::Mark Tracer::mark() {
  std::lock_guard lock(mu_);
  Mark m;
  for (const auto& b : buffers_) m.push_back(b->spans.size());
  return m;
}

std::size_t Tracer::num_spans() {
  std::lock_guard lock(mu_);
  std::size_t total = 0;
  for (const auto& b : buffers_) total += b->spans.size();
  return total;
}

Fold Tracer::fold(const Mark& since) {
  std::lock_guard lock(mu_);
  Fold out;
  for (std::size_t bi = 0; bi < buffers_.size(); ++bi) {
    const std::vector<SpanRec>& all = buffers_[bi]->spans;
    const std::size_t first = bi < since.size() ? since[bi] : 0;
    // Spans are pushed when they end (children before parents); walk them
    // in start order with a stack of open ancestors instead.
    std::vector<std::size_t> order(all.size() - first);
    std::iota(order.begin(), order.end(), first);
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (all[a].start_ns != all[b].start_ns) {
        return all[a].start_ns < all[b].start_ns;
      }
      return all[a].depth < all[b].depth;
    });
    std::vector<std::int64_t> child_ns(all.size(), 0);
    std::vector<std::size_t> stack;
    for (const std::size_t i : order) {
      const SpanRec& s = all[i];
      while (!stack.empty()) {
        const SpanRec& top = all[stack.back()];
        if (top.depth < s.depth &&
            s.start_ns + s.dur_ns <= top.start_ns + top.dur_ns) {
          break;
        }
        stack.pop_back();
      }
      const bool has_parent =
          !stack.empty() && all[stack.back()].depth + 1 == s.depth;
      if (has_parent) child_ns[stack.back()] += s.dur_ns;
      // A layer's inclusive time counts only its outermost spans, so
      // nested spans of the same layer are not added twice.
      if (!has_parent ||
          layer_of(all[stack.back()].name) != layer_of(s.name)) {
        out.layers[layer_of(s.name)].incl_s += s.dur_ns * 1e-9;
      }
      stack.push_back(i);
    }
    for (const std::size_t i : order) {
      const SpanRec& s = all[i];
      const double self = (s.dur_ns - child_ns[i]) * 1e-9;
      FoldRow& row = out.spans[s.name];
      ++row.count;
      row.incl_s += s.dur_ns * 1e-9;
      row.self_s += self;
      row.allocs += s.allocs;
      FoldRow& layer = out.layers[layer_of(s.name)];
      ++layer.count;
      layer.self_s += self;
    }
  }
  return out;
}

void Tracer::write_chrome_json(const std::string& path,
                               const std::string& other_data) {
  std::lock_guard lock(mu_);
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write trace file " + path);
  os << "{\"traceEvents\":[\n";
  bool first = true;
  const auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };
  for (const auto& b : buffers_) {
    sep();
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << b->tid
       << ",\"args\":{\"name\":\""
       << (b->tid == 0 ? std::string("main")
                       : "worker-" + std::to_string(b->tid))
       << "\"}}";
  }
  for (const auto& b : buffers_) {
    for (const SpanRec& s : b->spans) {
      sep();
      os << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
         << b->tid << ",\"ts\":" << micros(s.start_ns)
         << ",\"dur\":" << micros(s.dur_ns) << ",\"args\":{\"depth\":"
         << s.depth << ",\"allocs\":" << s.allocs << "}}";
    }
  }
  os << "\n],\"otherData\":{\"schema\":\"khop.trace\",\"schema_version\":1";
  if (!other_data.empty()) os << "," << other_data;
  os << "}}\n";
  if (!os) throw std::runtime_error("failed writing trace file " + path);
}

Span::Span(const char* name) : name_(name) {
  Tracer& t = tracer();
  if (!t.enabled()) return;
  buf_ = &t.local();
  depth_ = buf_->depth++;
  allocs_ = khop::bench::alloc_count();
  start_ns_ = t.now_ns();
}

Span::~Span() {
  if (buf_ == nullptr) return;
  const std::int64_t end = tracer().now_ns();
  const std::uint64_t allocs = khop::bench::alloc_count() - allocs_;
  --buf_->depth;
  buf_->spans.push_back({name_, depth_, start_ns_, end - start_ns_, allocs});
}

}  // namespace e2e
