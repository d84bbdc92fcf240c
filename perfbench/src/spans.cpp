#include "spans.h"

#include <cstdio>

#include "common/json.h"

namespace perfbench {

std::uint64_t SpanLog::add(Span s) {
  s.id = spans_.size() + 1;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void SpanLog::nameThread(int tid, std::string name) {
  threads_.emplace_back(tid, std::move(name));
}

void SpanLog::meta(std::string key, std::string value) {
  meta_.emplace_back(std::move(key), std::move(value));
}

bool SpanLog::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  {
    eecc::JsonWriter w(f);
    w.beginObject();
    w.field("displayTimeUnit", "ms");
    w.key("otherData");
    w.beginObject();
    for (const auto& [k, v] : meta_) w.field(k, v);
    w.endObject();
    w.key("traceEvents");
    w.beginArray();
    for (const auto& [tid, name] : threads_) {
      w.beginObject();
      w.field("name", "thread_name");
      w.field("ph", "M");
      w.field("pid", 1);
      w.field("tid", tid);
      w.key("args");
      w.beginObject();
      w.field("name", name);
      w.endObject();
      w.endObject();
    }
    for (const Span& s : spans_) {
      w.beginObject();
      w.field("name", s.name);
      w.field("cat", s.cat);
      w.field("ph", "X");
      w.field("ts", s.startS * 1e6);
      w.field("dur", s.durS * 1e6);
      w.field("pid", 1);
      w.field("tid", s.tid);
      w.key("args");
      w.beginObject();
      w.field("span_id", s.id);
      w.field("parent_id", s.parent);
      for (const auto& [k, v] : s.text) w.field(k, v);
      for (const auto& [k, v] : s.nums) w.field(k, v);
      w.endObject();
      w.endObject();
    }
    w.endArray();
    w.endObject();
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
