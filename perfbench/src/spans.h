// In-memory span log of a traced benchmark run, written out once at exit
// as Chrome trace_event JSON (open in Perfetto or chrome://tracing).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::string cat;
  double startS = 0;  ///< nowS() at the start.
  double durS = 0;
  int tid = 1;        ///< Timeline row (see SpanLog::threadNames).
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< Span that caused this one; 0 = root.
  std::vector<std::pair<std::string, std::string>> text;
  std::vector<std::pair<std::string, double>> nums;
};

class SpanLog {
 public:
  /// Appends a span and returns its id (ids start at 1).
  std::uint64_t add(Span s);
  /// Names one timeline row.
  void nameThread(int tid, std::string name);
  /// Run-level key/value pairs (provenance), written as "otherData".
  void meta(std::string key, std::string value);
  /// Writes the whole log; false when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::pair<int, std::string>> threads_;
  std::vector<std::pair<std::string, std::string>> meta_;
};

}  // namespace perfbench
