#include "export/flat_model.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>

#include "export/infer_plan.h"
#include "quant/quantize.h"

namespace nb::exporter {

namespace {

constexpr char kMagic[4] = {'N', 'B', 'F', 'M'};

// Plausibility ceilings for loaded geometry. A corrupted field (random bit
// flip, fuzzed stream) can otherwise carry values like 2^56 into the
// weight-count checks, whose int64 products would overflow — UB — before
// the mismatch is ever detected. Bounding each factor first keeps every
// product comfortably inside int64: 2^20 * 2^20 * 2^9 * 2^9 < 2^60.
constexpr int64_t kMaxLoadChannels = int64_t{1} << 20;
constexpr int64_t kMaxLoadKernel = 512;
constexpr int64_t kMaxLoadStridePad = int64_t{1} << 16;
constexpr int64_t kMaxLoadResolution = int64_t{1} << 20;

template <typename T>
void write_pod(std::ofstream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
void write_vec(std::ofstream& out, const std::vector<T>& v) {
  write_pod<int64_t>(out, static_cast<int64_t>(v.size()));
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(T)));
}

/// Bounds-checked cursor over an in-memory NBFM image — the one parser
/// behind both load(path) and load_from_buffer.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  void raw(void* dst, size_t n) {
    NB_CHECK(n <= size_ - off_, "flat model: truncated file");
    // An empty vector's data() may be null, and memcpy's pointers must not
    // be, even for a zero-byte copy.
    if (n == 0) return;
    std::memcpy(dst, data_ + off_, n);
    off_ += n;
  }

  template <typename T>
  T pod() {
    T value{};
    raw(&value, sizeof(T));
    return value;
  }

  template <typename T>
  std::vector<T> vec() {
    const int64_t n = pod<int64_t>();
    NB_CHECK(n >= 0 && n < (int64_t{1} << 32),
             "flat model: bad vector length");
    NB_CHECK(static_cast<uint64_t>(n) * sizeof(T) <= size_ - off_,
             "flat model: truncated vector");
    std::vector<T> v(static_cast<size_t>(n));
    raw(v.data(), v.size() * sizeof(T));
    return v;
  }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t off_ = 0;
};

bool all_finite(const std::vector<float>& v) {
  for (const float x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

/// Fake-quantizes an activation tensor the same way QuantConv2d does.
void quantize_activation_(Tensor& x, float scale, int bits) {
  if (scale > 0.0f) {
    quant::fake_quant_(x, scale, bits);
  }
}

void apply_act_(Tensor& x, FlatAct act) {
  float* p = x.data();
  const int64_t n = x.numel();
  switch (act) {
    case FlatAct::identity:
      return;
    case FlatAct::relu:
      for (int64_t i = 0; i < n; ++i) p[i] = std::max(p[i], 0.0f);
      return;
    case FlatAct::relu6:
      for (int64_t i = 0; i < n; ++i) p[i] = std::clamp(p[i], 0.0f, 6.0f);
      return;
  }
}

/// Direct grouped convolution on dequantized weights (reference runtime;
/// clarity over speed).
Tensor run_conv(const FlatConv& op, const Tensor& x) {
  NB_CHECK(x.dim() == 4, "flat conv: input must be NCHW");
  NB_CHECK(x.size(1) == op.cin, "flat conv: channel mismatch");
  const int64_t n = x.size(0);
  const int64_t in_h = x.size(2);
  const int64_t in_w = x.size(3);
  const int64_t out_h = (in_h + 2 * op.pad - op.kernel) / op.stride + 1;
  const int64_t out_w = (in_w + 2 * op.pad - op.kernel) / op.stride + 1;
  const int64_t cin_g = op.cin / op.groups;
  const int64_t cout_g = op.cout / op.groups;

  Tensor y({n, op.cout, out_h, out_w});
  const float* xp = x.data();
  float* yp = y.data();
  for (int64_t img = 0; img < n; ++img) {
    for (int64_t o = 0; o < op.cout; ++o) {
      const int64_t g = o / cout_g;
      const float scale = op.weight_scales[static_cast<size_t>(o)];
      const float b =
          op.has_bias ? op.bias[static_cast<size_t>(o)] : 0.0f;
      const int8_t* w =
          op.weights.data() + o * cin_g * op.kernel * op.kernel;
      for (int64_t oy = 0; oy < out_h; ++oy) {
        for (int64_t ox = 0; ox < out_w; ++ox) {
          // Integer-exact accumulation of (level * input) then one rescale,
          // mirroring an int8 MAC pipeline with int32 accumulators.
          float acc = 0.0f;
          for (int64_t ic = 0; ic < cin_g; ++ic) {
            const int64_t channel = g * cin_g + ic;
            const float* xplane =
                xp + (img * op.cin + channel) * in_h * in_w;
            const int8_t* wk = w + ic * op.kernel * op.kernel;
            for (int64_t ky = 0; ky < op.kernel; ++ky) {
              const int64_t iy = oy * op.stride + ky - op.pad;
              if (iy < 0 || iy >= in_h) continue;
              for (int64_t kx = 0; kx < op.kernel; ++kx) {
                const int64_t ix = ox * op.stride + kx - op.pad;
                if (ix < 0 || ix >= in_w) continue;
                acc += static_cast<float>(wk[ky * op.kernel + kx]) *
                       xplane[iy * in_w + ix];
              }
            }
          }
          yp[((img * op.cout + o) * out_h + oy) * out_w + ox] =
              acc * scale + b;
        }
      }
    }
  }
  return y;
}

Tensor run_gap(const Tensor& x) {
  const int64_t n = x.size(0);
  const int64_t c = x.size(1);
  const int64_t hw = x.size(2) * x.size(3);
  Tensor y({n, c});
  const float* xp = x.data();
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t ch = 0; ch < c; ++ch) {
      double s = 0.0;
      const float* plane = xp + (i * c + ch) * hw;
      for (int64_t t = 0; t < hw; ++t) s += plane[t];
      y.at(i, ch) = static_cast<float>(s / static_cast<double>(hw));
    }
  }
  return y;
}

Tensor run_linear(const FlatLinear& op, const Tensor& x) {
  NB_CHECK(x.dim() == 2 && x.size(1) == op.in,
           "flat linear: input shape mismatch");
  const int64_t n = x.size(0);
  Tensor y({n, op.out});
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t o = 0; o < op.out; ++o) {
      const int8_t* w = op.weights.data() + o * op.in;
      const float scale = op.weight_scales[static_cast<size_t>(o)];
      double acc = 0.0;
      for (int64_t k = 0; k < op.in; ++k) {
        acc += static_cast<double>(w[k]) * x.at(i, k);
      }
      y.at(i, o) = static_cast<float>(acc) * scale +
                   op.bias[static_cast<size_t>(o)];
    }
  }
  return y;
}

}  // namespace

void FlatModel::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  NB_CHECK(static_cast<bool>(out), "flat model: cannot open " + path);
  out.write(kMagic, 4);
  write_pod<uint32_t>(out, kFlatVersion);
  write_pod<int64_t>(out, input_res_);
  write_pod<int64_t>(out, input_channels_);
  write_pod<uint32_t>(out, static_cast<uint32_t>(ops_.size()));
  for (const FlatOp& op : ops_) {
    write_pod<uint8_t>(out, static_cast<uint8_t>(op.kind));
    if (op.kind == OpKind::conv) {
      const FlatConv& c = op.conv;
      write_pod<uint8_t>(out, static_cast<uint8_t>(c.act));
      write_pod<int64_t>(out, c.stride);
      write_pod<int64_t>(out, c.pad);
      write_pod<int64_t>(out, c.groups);
      write_pod<int64_t>(out, c.cout);
      write_pod<int64_t>(out, c.cin);
      write_pod<int64_t>(out, c.kernel);
      write_pod<uint8_t>(out, c.weight_bits);
      write_vec(out, c.weights);
      write_vec(out, c.weight_scales);
      write_pod<uint8_t>(out, c.has_bias ? 1 : 0);
      if (c.has_bias) write_vec(out, c.bias);
      write_pod<float>(out, c.act_scale);
      write_pod<uint8_t>(out, c.act_bits);
    } else if (op.kind == OpKind::linear) {
      const FlatLinear& l = op.linear;
      write_pod<int64_t>(out, l.in);
      write_pod<int64_t>(out, l.out);
      write_pod<uint8_t>(out, l.weight_bits);
      write_vec(out, l.weights);
      write_vec(out, l.weight_scales);
      write_vec(out, l.bias);
      write_pod<float>(out, l.act_scale);
      write_pod<uint8_t>(out, l.act_bits);
    }
  }
  NB_CHECK(static_cast<bool>(out), "flat model: write failed for " + path);
}

FlatModel FlatModel::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  NB_CHECK(static_cast<bool>(in), "flat model: cannot open " + path);
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  NB_CHECK(size >= 0, "flat model: read failed for " + path);
  in.seekg(0, std::ios::beg);
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  if (size > 0) {
    in.read(reinterpret_cast<char*>(bytes.data()), size);
    NB_CHECK(static_cast<bool>(in), "flat model: read failed for " + path);
  }
  return load_from_buffer(bytes.data(), bytes.size());
}

FlatModel FlatModel::load_from_buffer(const uint8_t* data, size_t size) {
  NB_CHECK(data != nullptr || size == 0, "flat model: null buffer");
  ByteReader in(data, size);
  char magic[4] = {};
  in.raw(magic, 4);
  NB_CHECK(std::memcmp(magic, kMagic, 4) == 0,
           "flat model: bad magic (not an NBFM file)");
  const auto version = in.pod<uint32_t>();
  NB_CHECK(version == kFlatVersion, "flat model: unsupported version " +
                                        std::to_string(version));
  FlatModel model;
  model.input_res_ = in.pod<int64_t>();
  model.input_channels_ = in.pod<int64_t>();
  NB_CHECK(model.input_res_ >= 0 && model.input_res_ <= kMaxLoadResolution,
           "flat model: implausible input resolution");
  NB_CHECK(model.input_channels_ > 0 &&
               model.input_channels_ <= kMaxLoadChannels,
           "flat model: implausible input channel count");
  const auto op_count = in.pod<uint32_t>();
  NB_CHECK(op_count < 100000, "flat model: implausible op count");
  for (uint32_t i = 0; i < op_count; ++i) {
    FlatOp op;
    op.kind = static_cast<OpKind>(in.pod<uint8_t>());
    switch (op.kind) {
      case OpKind::save:
      case OpKind::add_saved:
      case OpKind::gap:
        break;
      case OpKind::conv: {
        FlatConv& c = op.conv;
        const uint8_t act_raw = in.pod<uint8_t>();
        NB_CHECK(act_raw <= static_cast<uint8_t>(FlatAct::relu6),
                 "flat model: unknown conv activation");
        c.act = static_cast<FlatAct>(act_raw);
        c.stride = in.pod<int64_t>();
        c.pad = in.pod<int64_t>();
        c.groups = in.pod<int64_t>();
        c.cout = in.pod<int64_t>();
        c.cin = in.pod<int64_t>();
        c.kernel = in.pod<int64_t>();
        c.weight_bits = in.pod<uint8_t>();
        c.weights = in.vec<int8_t>();
        c.weight_scales = in.vec<float>();
        c.has_bias = in.pod<uint8_t>() != 0;
        if (c.has_bias) c.bias = in.vec<float>();
        c.act_scale = in.pod<float>();
        c.act_bits = in.pod<uint8_t>();
        NB_CHECK(c.cout > 0 && c.cin > 0 && c.kernel > 0 && c.stride > 0 &&
                     c.pad >= 0,
                 "flat model: bad conv geometry");
        // Plausibility bounds BEFORE any count product: a corrupted huge
        // field must reject here, not overflow the int64 arithmetic below.
        NB_CHECK(c.cout <= kMaxLoadChannels && c.cin <= kMaxLoadChannels &&
                     c.kernel <= kMaxLoadKernel &&
                     c.stride <= kMaxLoadStridePad &&
                     c.pad <= kMaxLoadStridePad,
                 "flat model: implausible conv geometry");
        NB_CHECK(c.weight_bits >= 1 && c.weight_bits <= 8,
                 "flat model: implausible conv weight bits");
        NB_CHECK(c.act_bits >= 1 && c.act_bits <= 32,
                 "flat model: implausible conv activation bits");
        NB_CHECK(c.groups > 0 && c.cin % c.groups == 0 &&
                     c.cout % c.groups == 0,
                 "flat model: conv groups must divide channels");
        NB_CHECK(static_cast<int64_t>(c.weights.size()) ==
                     c.cout * (c.cin / c.groups) * c.kernel * c.kernel,
                 "flat model: conv weight count mismatch");
        NB_CHECK(static_cast<int64_t>(c.weight_scales.size()) == c.cout,
                 "flat model: conv scale count mismatch");
        NB_CHECK(!c.has_bias ||
                     static_cast<int64_t>(c.bias.size()) == c.cout,
                 "flat model: conv bias count mismatch");
        // Int8-era numeric fields: a NaN/Inf/negative scale would load
        // "successfully" and only misbehave at quantization or plan-build
        // time (or silently disable fake-quant). Reject at the trust
        // boundary instead.
        NB_CHECK(std::isfinite(c.act_scale) && c.act_scale >= 0.0f,
                 "flat model: conv act_scale must be finite and >= 0");
        NB_CHECK(all_finite(c.weight_scales),
                 "flat model: non-finite conv weight scale");
        NB_CHECK(all_finite(c.bias), "flat model: non-finite conv bias");
        break;
      }
      case OpKind::linear: {
        FlatLinear& l = op.linear;
        l.in = in.pod<int64_t>();
        l.out = in.pod<int64_t>();
        l.weight_bits = in.pod<uint8_t>();
        l.weights = in.vec<int8_t>();
        l.weight_scales = in.vec<float>();
        l.bias = in.vec<float>();
        l.act_scale = in.pod<float>();
        l.act_bits = in.pod<uint8_t>();
        NB_CHECK(l.in > 0 && l.out > 0, "flat model: bad linear geometry");
        NB_CHECK(l.in <= kMaxLoadChannels && l.out <= kMaxLoadChannels,
                 "flat model: implausible linear geometry");
        NB_CHECK(l.weight_bits >= 1 && l.weight_bits <= 8,
                 "flat model: implausible linear weight bits");
        NB_CHECK(l.act_bits >= 1 && l.act_bits <= 32,
                 "flat model: implausible linear activation bits");
        NB_CHECK(static_cast<int64_t>(l.weights.size()) == l.in * l.out,
                 "flat model: linear weight count mismatch");
        NB_CHECK(static_cast<int64_t>(l.weight_scales.size()) == l.out,
                 "flat model: linear scale count mismatch");
        NB_CHECK(static_cast<int64_t>(l.bias.size()) == l.out,
                 "flat model: linear bias count mismatch");
        NB_CHECK(std::isfinite(l.act_scale) && l.act_scale >= 0.0f,
                 "flat model: linear act_scale must be finite and >= 0");
        NB_CHECK(all_finite(l.weight_scales),
                 "flat model: non-finite linear weight scale");
        NB_CHECK(all_finite(l.bias), "flat model: non-finite linear bias");
        break;
      }
      default:
        NB_CHECK(false, "flat model: unknown op kind");
    }
    model.ops_.push_back(std::move(op));
  }
  return model;
}

void FlatModel::set_input(int64_t resolution, int64_t channels) {
  input_res_ = resolution;
  input_channels_ = channels;
}

void FlatModel::push(FlatOp op) { ops_.push_back(std::move(op)); }

Tensor FlatModel::forward(const Tensor& input, Backend backend) const {
  if (backend == Backend::fast || backend == Backend::int8) {
    NB_CHECK(input.dim() == 4, "flat model: planned backends need NCHW input");
    return InferPlan(*this, input.size(0), input.size(1), input.size(2),
                     input.size(3), backend)
        .run(input);
  }
  NB_CHECK(!ops_.empty(), "flat model: empty program");
  Tensor x = input.clone();
  std::vector<Tensor> saved;
  for (const FlatOp& op : ops_) {
    switch (op.kind) {
      case OpKind::save:
        saved.push_back(x.clone());
        break;
      case OpKind::add_saved:
        NB_CHECK(!saved.empty(), "flat model: ADD without SAVE");
        x.add_(saved.back());
        saved.pop_back();
        break;
      case OpKind::conv: {
        quantize_activation_(x, op.conv.act_scale, op.conv.act_bits);
        x = run_conv(op.conv, x);
        apply_act_(x, op.conv.act);
        break;
      }
      case OpKind::gap:
        x = run_gap(x);
        break;
      case OpKind::linear:
        quantize_activation_(x, op.linear.act_scale, op.linear.act_bits);
        x = run_linear(op.linear, x);
        break;
    }
  }
  return x;
}

int64_t FlatModel::weight_bytes() const {
  int64_t bytes = 0;
  for (const FlatOp& op : ops_) {
    if (op.kind == OpKind::conv) {
      bytes += static_cast<int64_t>(op.conv.weights.size()) +
               static_cast<int64_t>(op.conv.weight_scales.size()) * 4 +
               static_cast<int64_t>(op.conv.bias.size()) * 4 + 4;
    } else if (op.kind == OpKind::linear) {
      bytes += static_cast<int64_t>(op.linear.weights.size()) +
               static_cast<int64_t>(op.linear.weight_scales.size()) * 4 +
               static_cast<int64_t>(op.linear.bias.size()) * 4 + 4;
    }
  }
  return bytes;
}

}  // namespace nb::exporter
