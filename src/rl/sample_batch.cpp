#include "rl/sample_batch.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace stellaris::rl {

namespace {
/// Wire footprint of one tensor field: dims as u64vec + data as f32vec.
std::size_t tensor_wire_size(const Tensor& t) {
  return wire::size_u64_vector(t.shape().size()) +
         wire::size_f32_vector(t.numel());
}

// The float fields of the wire format, in their wire order, with concat's
// layout: kObs and kActionsCont stack rows of one width; the rest are
// (T) vectors, and the advantage pair is kept only when every part has it.
enum Field : std::size_t {
  kObs,
  kActionsCont,
  kRewards,
  kDones,
  kBehaviourLogProbs,
  kValues,
  kAdvantages,
  kValueTargets,
  kFieldCount,
};

Tensor& field(SampleBatch& b, Field f) {
  Tensor* const fields[kFieldCount] = {
      &b.obs,    &b.actions_cont,        &b.rewards,
      &b.dones,  &b.behaviour_log_probs, &b.values,
      &b.advantages, &b.value_targets};
  return *fields[f];
}

nn::ActionKind read_kind(ByteReader& r) {
  return r.get_u8() == 0 ? nn::ActionKind::kContinuous
                         : nn::ActionKind::kDiscrete;
}

}  // namespace

std::vector<std::uint8_t> SampleBatch::serialize() const {
  // Single-pass encode: exact size first, then one allocation and pure
  // memcpy appends (tensor data goes out as whole spans).
  const std::size_t total =
      wire::size_u8() + tensor_wire_size(obs) + tensor_wire_size(actions_cont) +
      wire::size_u64_vector(actions_disc.size()) + tensor_wire_size(rewards) +
      tensor_wire_size(dones) + tensor_wire_size(behaviour_log_probs) +
      tensor_wire_size(values) + wire::size_f32() +
      wire::size_u64_vector(segments.size()) +
      wire::size_f32_vector(segments.size()) + wire::size_u64() +
      tensor_wire_size(advantages) + tensor_wire_size(value_targets) +
      wire::size_f64_vector(episode_returns.size());
  ByteWriter w(total);
  std::vector<std::uint64_t> dims;  // scratch reused across tensor headers
  auto put_tensor = [&](const Tensor& t) {
    dims.assign(t.shape().begin(), t.shape().end());
    w.put_u64_span(dims);
    w.put_f32_span(t.vec());
  };
  w.put_u8(action_kind == nn::ActionKind::kContinuous ? 0 : 1);
  put_tensor(obs);
  put_tensor(actions_cont);
  {
    dims.assign(actions_disc.begin(), actions_disc.end());
    w.put_u64_span(dims);
  }
  put_tensor(rewards);
  put_tensor(dones);
  put_tensor(behaviour_log_probs);
  put_tensor(values);
  w.put_f32(bootstrap_value);
  {
    std::vector<std::uint64_t> seg_starts;
    std::vector<float> seg_boot;
    seg_starts.reserve(segments.size());
    seg_boot.reserve(segments.size());
    for (const auto& s : segments) {
      seg_starts.push_back(s.start);
      seg_boot.push_back(s.bootstrap);
    }
    w.put_u64_span(seg_starts);
    w.put_f32_span(seg_boot);
  }
  w.put_u64(policy_version);
  put_tensor(advantages);
  put_tensor(value_targets);
  w.put_f64_vector(episode_returns);
  return w.take();
}

SampleBatch SampleBatch::deserialize(ByteSpan bytes) {
  SampleBatch b;
  deserialize_into(bytes, b);
  return b;
}

void SampleBatch::deserialize_into(ByteSpan bytes, SampleBatch& out) {
  ByteReader r(bytes);
  out.action_kind = read_kind(r);
  std::vector<std::uint64_t> dims;  // scratch reused across tensor headers
  Shape shape;
  auto get_tensor = [&](Tensor& t) {
    r.get_u64_vector_into(dims);
    shape.assign(dims.begin(), dims.end());
    // ensure_shape reuses t's buffer capacity; the vector read then lands
    // directly in the tensor's storage (one memcpy, no allocation once the
    // destination batch has seen this shape).
    t.ensure_shape(shape);
    const std::size_t n = r.get_f32_vector_into(t.vec());
    if (n != shape_numel(shape))
      throw Error("SampleBatch tensor data/shape mismatch: " +
                  std::to_string(n) + " elements for " + shape_str(shape));
  };
  get_tensor(out.obs);
  get_tensor(out.actions_cont);
  {
    r.get_u64_vector_into(dims);
    out.actions_disc.assign(dims.begin(), dims.end());
  }
  get_tensor(out.rewards);
  get_tensor(out.dones);
  get_tensor(out.behaviour_log_probs);
  get_tensor(out.values);
  out.bootstrap_value = r.get_f32();
  {
    const auto seg_starts = r.get_u64_vector();
    const auto seg_boot = r.get_f32_vector();
    out.segments.clear();
    out.segments.reserve(seg_starts.size());
    for (std::size_t i = 0; i < seg_starts.size(); ++i)
      out.segments.push_back(
          {static_cast<std::size_t>(seg_starts[i]), seg_boot[i]});
  }
  out.policy_version = r.get_u64();
  get_tensor(out.advantages);
  get_tensor(out.value_targets);
  r.get_f64_vector_into(out.episode_returns);
}

void SampleBatch::deserialize_concat_into(std::span<const ByteSpan> payloads,
                                          SampleBatch& out) {
  STELLARIS_CHECK_MSG(!payloads.empty(), "concat of zero batches");
  if (payloads.size() == 1) {
    deserialize_into(payloads.front(), out);
    return;
  }
  std::vector<std::uint64_t> dims;  // scratch: tensor headers, actions_disc
  auto read_dims = [&](ByteReader& r) {  // the element count, as shape_numel
    r.get_u64_vector_into(dims);
    std::size_t n = dims.empty() ? 0 : 1;
    for (const std::uint64_t d : dims) n *= static_cast<std::size_t>(d);
    return n;
  };

  // Pass 1, headers only (every float vector is stepped over): each
  // field's total length and row width, as concat lays it out.
  std::size_t floats[kFieldCount] = {}, widths[kFieldCount] = {};
  std::size_t discs = 0;
  bool all_advantages = true;
  for (std::size_t p = 0; p < payloads.size(); ++p) {
    ByteReader r(payloads[p]);
    const nn::ActionKind kind = read_kind(r);
    if (p == 0)
      out.action_kind = kind;
    else
      STELLARIS_CHECK_MSG(kind == out.action_kind,
                          "concat mixes action kinds");
    auto skip_tensor = [&](Field f) {
      const std::size_t n = read_dims(r);
      if (r.skip_f32_vector() != n)
        throw Error("SampleBatch tensor data/shape mismatch in field " +
                    std::to_string(static_cast<std::size_t>(f)));
      floats[f] += n;
      if (n > 0 && dims.size() >= 2) widths[f] = dims[1];
      return n;
    };
    skip_tensor(kObs);
    skip_tensor(kActionsCont);
    discs += r.get_u64_vector_into(dims);
    for (const Field f : {kRewards, kDones, kBehaviourLogProbs, kValues})
      skip_tensor(f);
    (void)r.get_f32();
    (void)r.get_u64_vector_into(dims);
    (void)r.skip_f32_vector();
    (void)r.get_u64();
    if (skip_tensor(kAdvantages) == 0) all_advantages = false;
    skip_tensor(kValueTargets);
  }
  const std::size_t rows = floats[kRewards];
  for (std::size_t f = 0; f < kFieldCount; ++f) {
    Tensor& t = field(out, static_cast<Field>(f));
    if (f == kObs || f == kActionsCont) {
      if (widths[f] == 0) {
        t.ensure_shape(Shape{});
        continue;
      }
      if (floats[f] % widths[f] != 0)
        throw Error("SampleBatch concat: ragged rows in field " +
                    std::to_string(f));
      t.ensure_shape({floats[f] / widths[f], widths[f]});
    } else if ((f == kAdvantages || f == kValueTargets) && !all_advantages) {
      t.ensure_shape(Shape{});
    } else {
      if (floats[f] != rows)
        throw Error("SampleBatch concat: " + std::to_string(floats[f]) +
                    " elements for " + std::to_string(rows) + " rows");
      t.ensure_shape({rows});
    }
  }

  // Pass 2: each part's floats at their offset in `out`, and its other
  // fields appended.
  std::size_t offsets[kFieldCount] = {};
  std::size_t row0 = 0;  // the part's first row, where its seams start
  std::vector<float> seam_bootstraps;
  std::vector<double> returns;
  out.actions_disc.clear();
  out.actions_disc.reserve(discs);
  out.segments.clear();
  out.episode_returns.clear();
  for (std::size_t p = 0; p < payloads.size(); ++p) {
    ByteReader r(payloads[p]);
    (void)read_kind(r);
    auto read_tensor = [&](Field f) {
      const std::size_t n = read_dims(r);
      Tensor& t = field(out, f);
      if (offsets[f] + n > t.numel())
        throw Error("SampleBatch concat: field " +
                    std::to_string(static_cast<std::size_t>(f)) +
                    " overruns its rows");
      r.get_f32_into(t.data().subspan(offsets[f], n));
      offsets[f] += n;
      return n;
    };
    read_tensor(kObs);
    read_tensor(kActionsCont);
    r.get_u64_vector_into(dims);
    out.actions_disc.insert(out.actions_disc.end(), dims.begin(), dims.end());
    const std::size_t part_rows = read_tensor(kRewards);
    for (const Field f : {kDones, kBehaviourLogProbs, kValues}) read_tensor(f);
    out.bootstrap_value = r.get_f32();  // the last part's stays
    // The part's segment views, shifted to its first row: concat's seams.
    r.get_u64_vector_into(dims);
    r.get_f32_vector_into(seam_bootstraps);
    if (dims.size() != seam_bootstraps.size())
      throw Error("SampleBatch segments: " + std::to_string(dims.size()) +
                  " starts, " + std::to_string(seam_bootstraps.size()) +
                  " bootstraps");
    if (dims.empty()) out.segments.push_back({row0, out.bootstrap_value});
    for (std::size_t i = 0; i < dims.size(); ++i)
      out.segments.push_back(
          {row0 + static_cast<std::size_t>(dims[i]), seam_bootstraps[i]});
    const std::uint64_t version = r.get_u64();
    if (p == 0) out.policy_version = version;
    if (all_advantages) {
      read_tensor(kAdvantages);
      read_tensor(kValueTargets);
    } else {
      for (int i = 0; i < 2; ++i) {
        (void)read_dims(r);
        (void)r.skip_f32_vector();
      }
    }
    r.get_f64_vector_into(returns);
    out.episode_returns.insert(out.episode_returns.end(), returns.begin(),
                               returns.end());
    row0 += part_rows;
  }
}

std::vector<SampleBatch::SegmentView> SampleBatch::segment_views() const {
  std::vector<SegmentView> views;
  if (segments.empty()) {
    views.push_back({0, size(), bootstrap_value});
    return views;
  }
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const std::size_t end =
        i + 1 < segments.size() ? segments[i + 1].start : size();
    views.push_back({segments[i].start, end, segments[i].bootstrap});
  }
  return views;
}

SampleBatch SampleBatch::concat(std::span<const SampleBatch> parts) {
  STELLARIS_CHECK_MSG(!parts.empty(), "concat of zero batches");
  SampleBatch out;
  out.action_kind = parts.front().action_kind;
  out.policy_version = parts.front().policy_version;
  out.bootstrap_value = parts.back().bootstrap_value;

  // Record the seams so advantage estimators never bootstrap across them.
  {
    std::size_t offset = 0;
    for (const auto& p : parts) {
      for (const auto& sv : p.segment_views())
        out.segments.push_back({offset + sv.start, sv.bootstrap});
      offset += p.size();
    }
  }

  std::size_t total = 0;
  for (const auto& p : parts) {
    STELLARIS_CHECK_MSG(p.action_kind == out.action_kind,
                        "concat mixes action kinds");
    total += p.size();
  }

  auto cat1 = [&](auto accessor) {
    std::vector<float> data;
    data.reserve(total);
    for (const auto& p : parts) {
      const Tensor& t = accessor(p);
      data.insert(data.end(), t.vec().begin(), t.vec().end());
    }
    return Tensor({total}, std::move(data));
  };
  auto cat2 = [&](auto accessor) {
    std::size_t width = 0;
    for (const auto& p : parts) {
      const Tensor& t = accessor(p);
      if (t.numel() > 0) width = t.dim(1);
    }
    if (width == 0) return Tensor();
    std::vector<float> data;
    data.reserve(total * width);
    for (const auto& p : parts) {
      const Tensor& t = accessor(p);
      data.insert(data.end(), t.vec().begin(), t.vec().end());
    }
    const std::size_t rows = data.size() / width;  // before the move below
    return Tensor({rows, width}, std::move(data));
  };

  out.obs = cat2([](const SampleBatch& p) -> const Tensor& { return p.obs; });
  out.actions_cont = cat2(
      [](const SampleBatch& p) -> const Tensor& { return p.actions_cont; });
  for (const auto& p : parts)
    out.actions_disc.insert(out.actions_disc.end(), p.actions_disc.begin(),
                            p.actions_disc.end());
  out.rewards =
      cat1([](const SampleBatch& p) -> const Tensor& { return p.rewards; });
  out.dones =
      cat1([](const SampleBatch& p) -> const Tensor& { return p.dones; });
  out.behaviour_log_probs = cat1([](const SampleBatch& p) -> const Tensor& {
    return p.behaviour_log_probs;
  });
  out.values =
      cat1([](const SampleBatch& p) -> const Tensor& { return p.values; });
  const bool all_adv = std::all_of(parts.begin(), parts.end(),
                                   [](const auto& p) {
                                     return p.has_advantages();
                                   });
  if (all_adv) {
    out.advantages = cat1(
        [](const SampleBatch& p) -> const Tensor& { return p.advantages; });
    out.value_targets = cat1(
        [](const SampleBatch& p) -> const Tensor& { return p.value_targets; });
  }
  for (const auto& p : parts)
    out.episode_returns.insert(out.episode_returns.end(),
                               p.episode_returns.begin(),
                               p.episode_returns.end());
  return out;
}

}  // namespace stellaris::rl
