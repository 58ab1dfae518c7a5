#include "trace.h"

#include <chrono>
#include <cstring>
#include <ctime>

namespace perfbench {

namespace {

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanRecorder::SpanRecorder() { spans_.reserve(1 << 16); }

void SpanRecorder::BeginOp(uint32_t op) {
  op_ = op;
  sample_cpu_ = op == kSetupOp || op % kCpuSampleEvery == 0;
}

uint32_t SpanRecorder::NameId(const char* name) {
  for (size_t i = 0; i < name_ptrs_.size(); ++i) {
    if (name_ptrs_[i] == name || std::strcmp(name_ptrs_[i], name) == 0) {
      return static_cast<uint32_t>(i);
    }
  }
  name_ptrs_.push_back(name);
  names_.emplace_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

uint32_t SpanRecorder::Open(const char* name) {
  Span s;
  s.name = NameId(name);
  s.parent = open_.empty() ? Span::kNoParent : open_.back();
  s.op = op_;
  const auto idx = static_cast<uint32_t>(spans_.size());
  open_.push_back(idx);
  open_cpu_.push_back(sample_cpu_ ? ThreadCpuNs() : -1);
  s.start_ns = NowNs();
  spans_.push_back(s);
  return idx;
}

void SpanRecorder::Close(uint32_t idx) {
  Span& s = spans_[idx];
  s.end_ns = NowNs();
  if (open_cpu_.back() >= 0) s.cpu_ns = ThreadCpuNs() - open_cpu_.back();
  open_.pop_back();
  open_cpu_.pop_back();
}

void SpanRecorder::Rename(uint32_t idx, const char* name) {
  spans_[idx].name = NameId(name);
}

bool SpanRecorder::WriteTsv(const std::string& path, size_t max_spans) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "op\tid\tparent\tname\tstart_ns\tend_ns\tcpu_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i >= max_spans && s.op != spans_[i - 1].op) break;
    std::fprintf(f, "%u\t%zu\t%lld\t%s\t%lld\t%lld\t%lld\n", s.op, i,
                 s.parent == Span::kNoParent ? -1LL
                                             : static_cast<long long>(s.parent),
                 names_[s.name].c_str(),
                 static_cast<long long>(s.start_ns - t0),
                 static_cast<long long>(s.end_ns - t0),
                 static_cast<long long>(s.cpu_ns));
  }
  return std::fclose(f) == 0;
}

std::vector<LayerTotals> Summarise(const SpanRecorder& rec, bool ops_only) {
  const std::vector<Span>& spans = rec.spans();
  // Child wall and CPU time per span, to turn inclusive times into self
  // times. Children always follow their parent in recording order.
  std::vector<double> child_wall(spans.size(), 0.0);
  std::vector<double> child_cpu(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent == Span::kNoParent) continue;
    child_wall[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
    if (s.cpu_ns >= 0) child_cpu[s.parent] += static_cast<double>(s.cpu_ns);
  }
  std::vector<LayerTotals> out(rec.names().size());
  for (size_t i = 0; i < out.size(); ++i) out[i].name = rec.names()[i];
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (ops_only && s.op == kSetupOp) continue;
    LayerTotals& t = out[s.name];
    const double wall = static_cast<double>(s.end_ns - s.start_ns);
    const double self = wall - child_wall[i];
    ++t.calls;
    t.wall_ns += wall;
    t.self_ns += self;
    if (s.cpu_ns >= 0) {
      t.sampled_self_ns += self;
      t.sampled_cpu_ns += static_cast<double>(s.cpu_ns) - child_cpu[i];
    }
  }
  std::vector<LayerTotals> ran;
  for (LayerTotals& t : out) {
    if (t.calls > 0) ran.push_back(std::move(t));
  }
  return ran;
}

const LayerTotals* FindLayer(const std::vector<LayerTotals>& layers,
                             const std::string& name) {
  for (const LayerTotals& t : layers) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

}  // namespace perfbench
