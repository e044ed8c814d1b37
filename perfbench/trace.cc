#include "perfbench/trace.h"

#include <algorithm>
#include <fstream>
#include <unordered_map>
#include <utility>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t Tracer::NewId() {
  std::lock_guard<std::mutex> lk(mu_);
  return next_id_++;
}

void Tracer::Record(uint64_t id, uint64_t parent, const char* name,
                    int64_t start_ns, int64_t end_ns) {
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(Span{id, parent, name, start_ns, end_ns});
}

uint64_t Tracer::Record(uint64_t parent, const char* name, int64_t start_ns,
                        int64_t end_ns) {
  std::lock_guard<std::mutex> lk(mu_);
  const uint64_t id = next_id_++;
  spans_.push_back(Span{id, parent, name, start_ns, end_ns});
  return id;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_.size();
}

std::map<std::string, Tracer::LayerTime> Tracer::LayerTimes() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, LayerTime> out;
  for (const Span& s : spans_) {
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<int64_t, int64_t>>& kids = it->second;
      std::sort(kids.begin(), kids.end());
      int64_t run_start = 0;
      int64_t run_end = 0;
      bool open = false;
      for (auto [start, end] : kids) {
        start = std::max(start, s.start_ns);
        end = std::min(end, s.end_ns);
        if (end <= start) continue;
        if (open && start <= run_end) {
          run_end = std::max(run_end, end);
          continue;
        }
        if (open) covered += run_end - run_start;
        run_start = start;
        run_end = end;
        open = true;
      }
      if (open) covered += run_end - run_start;
    }
    LayerTime& layer = out[s.name];
    const int64_t duration = s.end_ns - s.start_ns;
    layer.count++;
    layer.total_ms += duration / 1e6;
    layer.self_ms += (duration - covered) / 1e6;
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path,
                            const std::string& context_json) const {
  std::ofstream file(path);
  if (!file) return false;
  file << context_json << '\n';
  std::lock_guard<std::mutex> lk(mu_);
  for (const Span& s : spans_) {
    file << "{\"id\":" << s.id << ",\"parent\":" << s.parent
         << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
         << ",\"end_ns\":" << s.end_ns << "}\n";
  }
  file.close();
  return static_cast<bool>(file);
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, uint64_t parent)
    : tracer_(tracer), name_(name), parent_(parent) {
  if (tracer_ == nullptr) return;
  id_ = tracer_->NewId();
  start_ns_ = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  tracer_->Record(id_, parent_, name_, start_ns_, NowNs());
}

}  // namespace perfbench
