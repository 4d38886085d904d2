#include "trace.h"

#include <cstdio>

namespace perfbench {

uint32_t Tracer::Intern(const std::string& name) {
  auto [it, inserted] =
      ids_.emplace(name, static_cast<uint32_t>(names_.size()));
  if (inserted) {
    names_.push_back(name);
    totals_.emplace_back();
  }
  return it->second;
}

void Tracer::Begin(uint32_t name, uint64_t lookup_id) {
  Open open;
  open.name = name;
  if (kept_.size() < keep_limit_) {
    Record rec;
    rec.name = name;
    rec.parent = stack_.empty() ? -1 : stack_.back().record;
    rec.lookup_id = lookup_id;
    open.record = static_cast<int32_t>(kept_.size());
    kept_.push_back(rec);
  }
  open.start_ns = NowNs();
  stack_.push_back(open);
}

void Tracer::End(uint64_t items) {
  const int64_t end = NowNs();
  const Open open = stack_.back();
  stack_.pop_back();
  const int64_t duration = end - open.start_ns;
  SpanTotals& t = totals_[open.name];
  ++t.count;
  t.items += items;
  t.total_ns += duration;
  t.self_ns += duration - open.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += duration;
  if (open.record >= 0) {
    Record& rec = kept_[static_cast<size_t>(open.record)];
    rec.start_ns = open.start_ns;
    rec.end_ns = end;
    rec.items = items;
  }
}

SpanTotals Tracer::Totals(const std::string& name) const {
  auto it = ids_.find(name);
  return it == ids_.end() ? SpanTotals{} : totals_[it->second];
}

std::map<std::string, int64_t> Tracer::SelfNsByLayer() const {
  std::map<std::string, int64_t> out;
  for (size_t i = 0; i < names_.size(); ++i) {
    const std::string& name = names_[i];
    // The layer is the module: the first name component, or the first two
    // for the submodules of net (net.bus, net.wire, ...).
    size_t end = name.find('.');
    if (end != std::string::npos && name.compare(0, end, "net") == 0) {
      end = name.find('.', end + 1);
    }
    out[name.substr(0, end)] += totals_[i].self_ns;
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < kept_.size(); ++i) {
    const Record& r = kept_[i];
    std::fprintf(f,
                 "{\"i\":%zu,\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%d,\"lookup_id\":%llu,\"items\":%llu}\n",
                 i, names_[r.name].c_str(), static_cast<long long>(r.start_ns),
                 static_cast<long long>(r.end_ns), r.parent,
                 static_cast<unsigned long long>(r.lookup_id),
                 static_cast<unsigned long long>(r.items));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
