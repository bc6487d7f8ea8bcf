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
  out.action_kind = r.get_u8() == 0 ? nn::ActionKind::kContinuous
                                    : nn::ActionKind::kDiscrete;
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
