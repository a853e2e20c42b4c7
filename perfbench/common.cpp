#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace pb {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t i = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(i, v.size() - 1)];
}

uint64_t SplitMix::next() {
  uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double SplitMix::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

uint64_t derive_seed(uint64_t seed, const char* stream) {
  Hasher h;
  h.pod(seed);
  h.bytes(stream, std::strlen(stream));
  return SplitMix(h.value()).next();
}

void Hasher::bytes(const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ull;
  }
}

void Hasher::tensor(const nb::Tensor& t) {
  for (int64_t d : t.shape()) pod(d);
  bytes(t.data(), static_cast<size_t>(t.numel()) * sizeof(float));
}

void Hasher::flat_model(const nb::exporter::FlatModel& m) {
  pod(m.input_resolution());
  pod(m.input_channels());
  for (const nb::exporter::FlatOp& op : m.ops()) {
    pod(op.kind);
    const auto& c = op.conv;
    pod(c.act), pod(c.stride), pod(c.pad), pod(c.groups), pod(c.cout);
    pod(c.cin), pod(c.kernel), pod(c.act_scale), pod(c.act_bits);
    bytes(c.weights.data(), c.weights.size());
    bytes(c.weight_scales.data(), c.weight_scales.size() * sizeof(float));
    bytes(c.bias.data(), c.bias.size() * sizeof(float));
    const auto& l = op.linear;
    pod(l.in), pod(l.out), pod(l.act_scale), pod(l.act_bits);
    bytes(l.weights.data(), l.weights.size());
    bytes(l.weight_scales.data(), l.weight_scales.size() * sizeof(float));
    bytes(l.bias.data(), l.bias.size() * sizeof(float));
  }
}

std::string Hasher::hex() const {
  return strf("%016llx", static_cast<unsigned long long>(h_));
}

bool bitwise_equal(const nb::Tensor& a, const nb::Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

nb::exporter::FlatModel fresh_copy(const nb::exporter::FlatModel& m) {
  nb::exporter::FlatModel out;
  out.set_input(m.input_resolution(), m.input_channels());
  for (const nb::exporter::FlatOp& op : m.ops()) out.push(op);
  return out;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

void reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

std::string cpu_model() {
  std::ifstream info("/proc/cpuinfo");
  std::string line;
  while (std::getline(info, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

std::string strf(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

}  // namespace pb
