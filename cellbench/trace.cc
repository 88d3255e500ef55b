#include "trace.h"

#include <fstream>
#include <iomanip>

#include "util/check.h"

namespace cellbench {

int Tracer::Begin(const std::string& name, const std::string& layer) {
  Span span;
  span.name = name;
  span.layer = layer;
  span.id = static_cast<int>(spans_.size());
  span.parent = open_.empty() ? -1 : open_.back();
  span.thread = 0;
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::End(int id) {
  const int64_t now = NowNs();
  NIID_CHECK(!open_.empty() && open_.back() == id) << "unbalanced span " << id;
  open_.pop_back();
  spans_[id].end_ns = now;
}

void Tracer::AddClosed(const std::string& name, const std::string& layer,
                       int64_t start_ns, int64_t end_ns, int64_t thread) {
  Span span;
  span.name = name;
  span.layer = layer;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.id = static_cast<int>(spans_.size());
  span.parent = open_.empty() ? -1 : open_.back();
  span.thread = thread;
  spans_.push_back(std::move(span));
}

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name && span.end_ns >= span.start_ns) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e6);
    }
  }
  return out;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << std::fixed << std::setprecision(3)
      << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"name\":\"" << s.name << "\",\"cat\":\"" << s.layer
        << "\",\"ph\":\"X\",\"pid\":" << run_id_ << ",\"tid\":" << s.thread
        << ",\"ts\":" << static_cast<double>(s.start_ns - origin) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"run\":" << run_id_ << "}}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace cellbench
