#include "obs/timeline.hpp"

#include "obs/deterministic.hpp"

#include <fstream>
#include <iomanip>
#include <ostream>

namespace qadd::obs {

std::uint32_t currentThreadId() {
  static std::atomic<std::uint32_t> next{1};
  thread_local std::uint32_t tid = next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

namespace {

/// Innermost open ScopedSeries of this thread (nullptr outside any run).
thread_local const Timeline::ScopedSeries* tlsSeries = nullptr;

} // namespace

Timeline::ScopedSeries::ScopedSeries(std::string label, double epsilon)
    : label_(std::move(label)), epsilon_(epsilon), previous_(tlsSeries) {
  tlsSeries = this;
}

Timeline::ScopedSeries::~ScopedSeries() { tlsSeries = previous_; }

Timeline& Timeline::global() {
  static Timeline instance;
  return instance;
}

void Timeline::fillSeriesContext(Sample& sample) {
  if (tlsSeries != nullptr) {
    sample.series = tlsSeries->label_;
    sample.epsilon = tlsSeries->epsilon_;
  }
}

void Timeline::setCapacity(std::size_t capacity) {
  const std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = capacity == 0 ? 1 : capacity;
  ring_.clear();
  ring_.shrink_to_fit();
  head_ = 0;
  count_ = 0;
  dropped_ = 0;
}

void Timeline::record(Sample sample) {
  if constexpr (!kEnabled) {
    return;
  }
  if (!enabled()) {
    return;
  }
  sample.tid = currentThreadId();
  sample.seconds = nowSeconds();
  const std::lock_guard<std::mutex> lock(mutex_);
  if (count_ < capacity_) {
    ring_.push_back(std::move(sample));
    ++count_;
    return;
  }
  // Full: overwrite the oldest slot and advance the ring head.
  ring_[head_] = std::move(sample);
  head_ = (head_ + 1) % capacity_;
  ++dropped_;
}

std::size_t Timeline::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return count_;
}

std::size_t Timeline::dropped() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

void Timeline::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  ring_.clear();
  head_ = 0;
  count_ = 0;
  dropped_ = 0;
}

std::vector<Timeline::Sample> Timeline::samplesSnapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Sample> samples;
  samples.reserve(count_);
  for (std::size_t i = 0; i < count_; ++i) {
    samples.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return samples;
}

namespace {

const char* kindName(Timeline::Kind kind) {
  return kind == Timeline::Kind::Gate ? "gate" : "point";
}

/// Minimal JSON string escaping (series labels come from trace labels, but
/// stay safe for arbitrary circuit names).
void writeEscaped(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
    case '"':
      os << "\\\"";
      break;
    case '\\':
      os << "\\\\";
      break;
    case '\n':
      os << "\\n";
      break;
    case '\t':
      os << "\\t";
      break;
    default:
      if (static_cast<unsigned char>(c) < 0x20) {
        os << ' ';
      } else {
        os << c;
      }
    }
  }
  os << '"';
}

} // namespace

void Timeline::writeJson(std::ostream& os) const {
  const std::vector<Sample> samples = samplesSnapshot();
  const bool det = deterministic();
  os << std::setprecision(12);
  os << "{\"deterministic\":" << (det ? "true" : "false") << ",\"dropped\":" << dropped()
     << ",\"samples\":[";
  bool first = true;
  for (const Sample& sample : samples) {
    os << (first ? "" : ",") << "\n{\"series\":";
    writeEscaped(os, sample.series);
    os << ",\"kind\":\"" << kindName(sample.kind) << "\",\"tid\":" << sample.tid
       << ",\"gate\":" << sample.gateIndex << ",\"epsilon\":" << sample.epsilon
       << ",\"liveNodes\":" << sample.liveNodes << ",\"peakNodes\":" << sample.peakNodes
       << ",\"arenaBytes\":" << sample.arenaBytes << ",\"uniqueEntries\":" << sample.uniqueEntries
       << ",\"uniqueBuckets\":" << sample.uniqueBuckets
       << ",\"uniqueCollisions\":" << (det ? 0 : sample.uniqueCollisions)
       << ",\"cacheHitRate\":" << (det ? 0.0 : sample.cacheHitRate)
       << ",\"gcRuns\":" << sample.gcRuns << ",\"smallPathHits\":" << sample.smallPathHits
       << ",\"smallPathSpills\":" << sample.smallPathSpills
       << ",\"weightEntries\":" << sample.weightEntries
       << ",\"prunedNodes\":" << sample.prunedNodes
       << ",\"seconds\":" << (det ? 0.0 : sample.seconds) << "}";
    first = false;
  }
  os << "\n]}\n";
}

bool Timeline::writeJson(const std::string& path) const {
  std::ofstream os(path);
  if (!os) {
    return false;
  }
  writeJson(os);
  return os.good();
}

void Timeline::writeCsv(std::ostream& os) const {
  const std::vector<Sample> samples = samplesSnapshot();
  const bool det = deterministic();
  os << "series,kind,tid,gate,epsilon,livenodes,peaknodes,arenabytes,uniqueentries,"
        "uniquebuckets,uniquecollisions,cachehitrate,gcruns,smallpathhits,smallpathspills,"
        "weightentries,prunednodes,seconds\n";
  os << std::setprecision(12);
  for (const Sample& sample : samples) {
    os << sample.series << "," << kindName(sample.kind) << "," << sample.tid << ","
       << sample.gateIndex << "," << sample.epsilon << "," << sample.liveNodes << ","
       << sample.peakNodes << "," << sample.arenaBytes << "," << sample.uniqueEntries << ","
       << sample.uniqueBuckets << "," << (det ? 0 : sample.uniqueCollisions) << ","
       << (det ? 0.0 : sample.cacheHitRate) << "," << sample.gcRuns << ","
       << sample.smallPathHits << "," << sample.smallPathSpills << "," << sample.weightEntries
       << "," << sample.prunedNodes << "," << (det ? 0.0 : sample.seconds) << "\n";
  }
}

bool Timeline::writeCsv(const std::string& path) const {
  std::ofstream os(path);
  if (!os) {
    return false;
  }
  writeCsv(os);
  return os.good();
}

} // namespace qadd::obs
