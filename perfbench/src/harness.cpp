#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t fnv(std::uint64_t digest, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    digest ^= bytes[i];
    digest *= 0x100000001b3ull;
  }
  return digest;
}

double median(std::vector<double> v) {
  if (v.empty()) throw std::logic_error("median of an empty sample");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

int Spans::open(const std::string& name, const std::string& request) {
  Span s;
  s.name = name;
  s.request = request;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.start = now_s();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Spans::close(int id) {
  spans_[static_cast<std::size_t>(id)].end = now_s();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

int Spans::derive(int parent, const std::string& name, double seconds) {
  const Span& p = spans_[static_cast<std::size_t>(parent)];
  auto [it, fresh] = derived_cursor_.try_emplace(parent, p.start);
  Span s;
  s.name = name;
  s.request = p.request;
  s.parent = parent;
  s.start = it->second;
  s.end = s.start + seconds;
  s.derived = true;
  it->second = s.end;
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

namespace {

bool is_probe(const Spans::Span& s) { return s.name.rfind("probe.", 0) == 0; }

}  // namespace

void Spans::classify(int root, std::vector<double>& children,
                     std::vector<char>& in_probe,
                     std::vector<char>& under_root) const {
  // Parents precede children, so one forward pass resolves every flag.
  children.assign(spans_.size(), 0.0);
  in_probe.assign(spans_.size(), 0);
  under_root.assign(spans_.size(), root < 0 ? 1 : 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent >= 0) {
      const auto p = static_cast<std::size_t>(s.parent);
      children[p] += s.end - s.start;
      in_probe[i] = in_probe[p] || is_probe(spans_[p]);
      under_root[i] = under_root[p] || s.parent == root;
    }
  }
}

std::map<std::string, double> Spans::self_seconds(int root) const {
  std::vector<double> children;
  std::vector<char> in_probe;
  std::vector<char> under_root;
  classify(root, children, in_probe, under_root);
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (in_probe[i] || is_probe(s) || !under_root[i]) continue;
    const double t = (s.end - s.start) - children[i];
    self[s.name] += t;
    if (!s.request.empty()) self[s.name + "@" + s.request] += t;
  }
  return self;
}

double Spans::probe_seconds(int root) const {
  std::vector<double> children;
  std::vector<char> in_probe;
  std::vector<char> under_root;
  classify(root, children, in_probe, under_root);
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (is_probe(s) && !in_probe[i] && under_root[i]) total += s.end - s.start;
  }
  return total;
}

double Spans::total_seconds(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) total += s.end - s.start;
  }
  return total;
}

namespace {

std::string json_escape(const std::string& in) {
  std::string out;
  for (const char c : in) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

void Spans::write_chrome_trace(const std::string& path) const {
  std::ofstream out{path};
  if (!out) throw std::runtime_error("cannot write trace " + path);
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out << "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\","
         "\"args\":{\"name\":\"perfbench\"}}";
  char buf[64];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string& cat =
        s.name.substr(0, std::min(s.name.find('.'), s.name.size()));
    out << ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\""
        << json_escape(s.name) << "\",\"cat\":\"" << json_escape(cat) << "\"";
    std::snprintf(buf, sizeof buf, ",\"ts\":%.3f,\"dur\":%.3f",
                  (s.start - t0) * 1e6, (s.end - s.start) * 1e6);
    out << buf << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"request\":\"" << json_escape(s.request) << "\",\"derived\":"
        << (s.derived ? "true" : "false") << "}}";
  }
  out << "\n]}\n";
}

void Checks::expect(bool ok, const std::string& name,
                    const std::string& detail) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "CHECK FAILED " << name
              << (detail.empty() ? "" : ": " + detail) << "\n";
  }
}

}  // namespace perfbench
