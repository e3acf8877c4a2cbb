#include "nn/lowering.h"

#include "nn/attention.h"
#include "nn/embeddings.h"
#include "nn/encoder.h"
#include "nn/linear.h"
#include "util/logging.h"

namespace explainti::nn {

/// Befriended by the modules it reads. Keeping the accessors here (rather
/// than adding public getters to every module) keeps the lowering surface
/// in one file: the set of weights a compiled plan may touch is exactly
/// the set of accessors below.
struct LoweringAccess {
  static const TransformerEmbeddings& Embeddings(
      const TransformerEncoder& encoder) {
    return encoder.embeddings_;
  }
  static const std::vector<std::unique_ptr<EncoderLayer>>& Layers(
      const TransformerEncoder& encoder) {
    return encoder.layers_;
  }

  static EmbeddingsLowering Lower(const TransformerEmbeddings& emb) {
    EmbeddingsLowering out;
    out.token_table = emb.token_table_.data();
    out.position_table = emb.position_table_.data();
    out.use_segments = emb.config_.use_segments;
    out.segment_table = out.use_segments ? emb.segment_table_.data() : nullptr;
    out.ln_gamma = emb.ln_gamma_.data();
    out.ln_beta = emb.ln_beta_.data();
    out.vocab_size = emb.token_table_.dim(0);
    out.max_len = emb.position_table_.dim(0);
    return out;
  }

  static EncoderLayerLowering Lower(const EncoderLayer& layer) {
    EncoderLayerLowering out;
    const MultiHeadSelfAttention& attn = layer.attention_;
    out.wq = LowerLinear(attn.wq_);
    out.wk = LowerLinear(attn.wk_);
    out.wv = LowerLinear(attn.wv_);
    out.wo = LowerLinear(attn.wo_);
    out.ffn_in = LowerLinear(layer.ffn_in_);
    out.ffn_out = LowerLinear(layer.ffn_out_);
    out.ln1_gamma = layer.ln1_gamma_.data();
    out.ln1_beta = layer.ln1_beta_.data();
    out.ln2_gamma = layer.ln2_gamma_.data();
    out.ln2_beta = layer.ln2_beta_.data();
    return out;
  }
};

LinearLowering LowerLinear(const Linear& linear) {
  LinearLowering out;
  out.weight = linear.weight().data();
  out.bias = linear.bias().data();
  out.in = linear.in_features();
  out.out = linear.out_features();
  return out;
}

EncoderLowering LowerEncoder(const TransformerEncoder& encoder) {
  EncoderLowering out;
  out.embeddings =
      LoweringAccess::Lower(LoweringAccess::Embeddings(encoder));
  for (const auto& layer : LoweringAccess::Layers(encoder)) {
    CHECK(layer != nullptr);
    out.layers.push_back(LoweringAccess::Lower(*layer));
  }
  out.d_model = encoder.config().d_model;
  out.num_heads = encoder.config().num_heads;
  out.ffn_dim = encoder.config().ffn_dim;
  return out;
}

}  // namespace explainti::nn
