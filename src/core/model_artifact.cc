#include "core/model_artifact.h"

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "util/binary_io.h"
#include "util/fault_injection.h"

namespace slampred {
namespace {

constexpr char kMagic[8] = {'S', 'L', 'P', 'M', 'O', 'D', 'E', 'L'};

// Section ids of format version 1. kSectionLowRankFactors is an
// additive extension within the version: readers predating it skip the
// section (checksum still verified) and fail cleanly on the missing
// score matrix rather than misreading the factors.
enum SectionId : std::uint32_t {
  kSectionConfig = 1,
  kSectionScoreMatrix = 2,
  kSectionAdaptedTensors = 3,
  kSectionLowRankFactors = 4,
  // Sharded (partitioned-fit) artifacts: one manifest (user count +
  // per-shard user ranges), then one section per shard (its index +
  // ModelShard payload) so a serving registry can re-publish a single
  // shard, then the boundary-refinement CSR.
  kSectionShardManifest = 5,
  kSectionShard = 6,
  kSectionBoundary = 7,
  // Quantized artifacts (DESIGN.md §15). All additive within the
  // format version: old readers skip them (checksums still verified)
  // and fail cleanly on the missing float payload.
  kSectionQuantizedScores = 8,    // full-matrix QuantizedMatrix
  kSectionQuantizedShard = 9,     // shard index + users + quantized block
  kSectionQuantizedBoundary = 10,  // QuantizedSymmetricCsr
  kSectionHotCache = 11,          // precomputed hot-user row prefixes
};

// The config is stored field by field in a fixed order; any layout
// change here must bump kModelArtifactFormatVersion.
void SerializeConfig(const SlamPredConfig& config, BinaryWriter& writer) {
  writer.WriteDouble(config.alpha_target);
  writer.WriteU64(config.alpha_sources.size());
  for (double alpha : config.alpha_sources) writer.WriteDouble(alpha);
  writer.WriteDouble(config.mu);
  writer.WriteDouble(config.gamma);
  writer.WriteDouble(config.tau);
  writer.WriteDouble(config.intimacy_scale);
  writer.WriteU64(config.latent_dim);
  writer.WriteBool(config.use_attributes);
  writer.WriteBool(config.use_sources);
  writer.WriteBool(config.domain_adaptation);
  writer.WriteBool(config.project_target_features);
  writer.WriteU8(static_cast<std::uint8_t>(config.loss));
  writer.WriteU64(config.seed);

  const FeatureTensorOptions& f = config.features;
  writer.WriteBool(f.common_neighbors);
  writer.WriteBool(f.jaccard);
  writer.WriteBool(f.adamic_adar);
  writer.WriteBool(f.resource_allocation);
  writer.WriteBool(f.preferential_attachment);
  writer.WriteBool(f.truncated_katz);
  writer.WriteDouble(f.katz_beta);
  writer.WriteBool(f.word_similarity);
  writer.WriteBool(f.location_similarity);
  writer.WriteBool(f.time_similarity);
  writer.WriteBool(f.meta_paths);
  writer.WriteBool(f.sqrt_transform);

  const DomainAdapterOptions& a = config.adapter;
  writer.WriteU64(a.projection.latent_dim);
  writer.WriteDouble(a.projection.mu);
  writer.WriteU64(a.sampling.positives_per_network);
  writer.WriteU64(a.sampling.negatives_per_network);
  writer.WriteU64(a.sampling.max_negative_attempts);
  writer.WriteBool(a.normalize_adapted);

  const CccpOptions& o = config.optimization;
  writer.WriteDouble(o.inner.theta);
  writer.WriteI32(o.inner.max_iterations);
  writer.WriteDouble(o.inner.tol);
  writer.WriteBool(o.inner.project_unit_box);
  writer.WriteBool(o.inner.keep_symmetric);
  writer.WriteBool(o.inner.guardrails.enabled);
  writer.WriteDouble(o.inner.guardrails.backoff_factor);
  writer.WriteI32(o.inner.guardrails.max_recoveries);
  writer.WriteDouble(o.inner.guardrails.divergence_factor);
  writer.WriteI32(o.inner.guardrails.divergence_window);
  writer.WriteI32(o.inner.guardrails.max_svd_fallbacks);
  writer.WriteI32(o.inner.guardrails.max_checkpoint_resumes);
  // Five fields of the retired dense randomized prox, written at their
  // historical defaults so the format is unchanged.
  writer.WriteBool(false);
  writer.WriteU64(10);
  writer.WriteU64(8);
  writer.WriteI32(2);
  writer.WriteU64(0x5eed);
  writer.WriteI32(o.max_outer_iterations);
  writer.WriteDouble(o.outer_tol);
}

#define SLAMPRED_READ_INTO(lhs, expr)            \
  do {                                           \
    auto _read = (expr);                         \
    if (!_read.ok()) return _read.status();      \
    lhs = _read.value();                         \
  } while (false)

#define SLAMPRED_SKIP(expr)                      \
  do {                                           \
    auto _read = (expr);                         \
    if (!_read.ok()) return _read.status();      \
  } while (false)

Result<SlamPredConfig> DeserializeConfig(BinaryReader& reader) {
  SlamPredConfig config;
  SLAMPRED_READ_INTO(config.alpha_target, reader.ReadDouble());
  std::uint64_t num_alpha_sources = 0;
  SLAMPRED_READ_INTO(num_alpha_sources, reader.ReadU64());
  if (num_alpha_sources > reader.remaining() / sizeof(double)) {
    return reader.Truncated(
        static_cast<std::size_t>(num_alpha_sources) * sizeof(double),
        "alpha_sources");
  }
  config.alpha_sources.assign(static_cast<std::size_t>(num_alpha_sources),
                              0.0);
  for (double& alpha : config.alpha_sources) {
    SLAMPRED_READ_INTO(alpha, reader.ReadDouble());
  }
  SLAMPRED_READ_INTO(config.mu, reader.ReadDouble());
  SLAMPRED_READ_INTO(config.gamma, reader.ReadDouble());
  SLAMPRED_READ_INTO(config.tau, reader.ReadDouble());
  SLAMPRED_READ_INTO(config.intimacy_scale, reader.ReadDouble());
  SLAMPRED_READ_INTO(config.latent_dim, reader.ReadU64());
  SLAMPRED_READ_INTO(config.use_attributes, reader.ReadBool());
  SLAMPRED_READ_INTO(config.use_sources, reader.ReadBool());
  SLAMPRED_READ_INTO(config.domain_adaptation, reader.ReadBool());
  SLAMPRED_READ_INTO(config.project_target_features, reader.ReadBool());
  const std::size_t loss_offset = reader.offset();
  std::uint8_t loss = 0;
  SLAMPRED_READ_INTO(loss, reader.ReadU8());
  if (loss > static_cast<std::uint8_t>(LossKind::kSquaredHinge)) {
    return Status::IoError("corrupt loss kind " + std::to_string(loss) +
                           " at offset " + std::to_string(loss_offset));
  }
  config.loss = static_cast<LossKind>(loss);
  SLAMPRED_READ_INTO(config.seed, reader.ReadU64());

  FeatureTensorOptions& f = config.features;
  SLAMPRED_READ_INTO(f.common_neighbors, reader.ReadBool());
  SLAMPRED_READ_INTO(f.jaccard, reader.ReadBool());
  SLAMPRED_READ_INTO(f.adamic_adar, reader.ReadBool());
  SLAMPRED_READ_INTO(f.resource_allocation, reader.ReadBool());
  SLAMPRED_READ_INTO(f.preferential_attachment, reader.ReadBool());
  SLAMPRED_READ_INTO(f.truncated_katz, reader.ReadBool());
  SLAMPRED_READ_INTO(f.katz_beta, reader.ReadDouble());
  SLAMPRED_READ_INTO(f.word_similarity, reader.ReadBool());
  SLAMPRED_READ_INTO(f.location_similarity, reader.ReadBool());
  SLAMPRED_READ_INTO(f.time_similarity, reader.ReadBool());
  SLAMPRED_READ_INTO(f.meta_paths, reader.ReadBool());
  SLAMPRED_READ_INTO(f.sqrt_transform, reader.ReadBool());

  DomainAdapterOptions& a = config.adapter;
  SLAMPRED_READ_INTO(a.projection.latent_dim, reader.ReadU64());
  SLAMPRED_READ_INTO(a.projection.mu, reader.ReadDouble());
  SLAMPRED_READ_INTO(a.sampling.positives_per_network, reader.ReadU64());
  SLAMPRED_READ_INTO(a.sampling.negatives_per_network, reader.ReadU64());
  SLAMPRED_READ_INTO(a.sampling.max_negative_attempts, reader.ReadU64());
  SLAMPRED_READ_INTO(a.normalize_adapted, reader.ReadBool());

  CccpOptions& o = config.optimization;
  SLAMPRED_READ_INTO(o.inner.theta, reader.ReadDouble());
  SLAMPRED_READ_INTO(o.inner.max_iterations, reader.ReadI32());
  SLAMPRED_READ_INTO(o.inner.tol, reader.ReadDouble());
  SLAMPRED_READ_INTO(o.inner.project_unit_box, reader.ReadBool());
  SLAMPRED_READ_INTO(o.inner.keep_symmetric, reader.ReadBool());
  SLAMPRED_READ_INTO(o.inner.guardrails.enabled, reader.ReadBool());
  SLAMPRED_READ_INTO(o.inner.guardrails.backoff_factor, reader.ReadDouble());
  SLAMPRED_READ_INTO(o.inner.guardrails.max_recoveries, reader.ReadI32());
  SLAMPRED_READ_INTO(o.inner.guardrails.divergence_factor,
                     reader.ReadDouble());
  SLAMPRED_READ_INTO(o.inner.guardrails.divergence_window, reader.ReadI32());
  SLAMPRED_READ_INTO(o.inner.guardrails.max_svd_fallbacks, reader.ReadI32());
  SLAMPRED_READ_INTO(o.inner.guardrails.max_checkpoint_resumes,
                     reader.ReadI32());
  // The retired dense randomized-prox fields: read and discarded.
  SLAMPRED_SKIP(reader.ReadBool());
  SLAMPRED_SKIP(reader.ReadU64());
  SLAMPRED_SKIP(reader.ReadU64());
  SLAMPRED_SKIP(reader.ReadI32());
  SLAMPRED_SKIP(reader.ReadU64());
  SLAMPRED_READ_INTO(o.max_outer_iterations, reader.ReadI32());
  SLAMPRED_READ_INTO(o.outer_tol, reader.ReadDouble());
  return config;
}

#undef SLAMPRED_READ_INTO
#undef SLAMPRED_SKIP

void AppendSection(std::uint32_t id, const std::string& payload,
                   BinaryWriter& writer) {
  writer.WriteU32(id);
  writer.WriteU64(payload.size());
  writer.WriteBytes(payload.data(), payload.size());
  writer.WriteU32(Crc32(payload.data(), payload.size()));
}

// Translates the "artifact.read" fault site into a load failure.
Status InjectedArtifactFault() {
  switch (SLAMPRED_FAULT_HIT("artifact.read")) {
    case FaultKind::kFailIo:
      return Status::IoError("injected artifact read fault");
    case FaultKind::kFailNumerical:
    case FaultKind::kPoisonNaN:
    case FaultKind::kPoisonInf:
      return Status::NumericalError("injected artifact read fault");
    case FaultKind::kFailNotConverged:
      return Status::NotConverged("injected artifact read fault");
    case FaultKind::kNone:
      break;
  }
  return Status::OK();
}

}  // namespace

Result<ModelArtifact> MakeModelArtifact(const SlamPred& model,
                                        bool include_adapted_tensors) {
  if (!model.fitted()) {
    return Status::FailedPrecondition(
        "cannot snapshot an artifact before Fit");
  }
  ModelArtifact artifact;
  artifact.config = model.config();
  if (model.partitioned()) {
    artifact.shards = model.ShardedScoreMatrix();
    artifact.has_shards = true;
  } else if (model.config().solver_backend == SolverBackend::kFactored) {
    artifact.low_rank = model.FactoredScoreMatrix();
    artifact.has_low_rank = true;
  } else {
    artifact.s = model.ScoreMatrix();
  }
  if (include_adapted_tensors) {
    artifact.adapted_tensors = model.adapted_tensors();
    artifact.has_adapted_tensors = true;
  }
  return artifact;
}

std::string SerializeModelArtifact(const ModelArtifact& artifact) {
  BinaryWriter writer;
  writer.WriteBytes(kMagic, sizeof(kMagic));
  writer.WriteU32(kModelArtifactFormatVersion);
  const bool write_s =
      !artifact.s.empty() ||
      (!artifact.has_low_rank && !artifact.has_shards &&
       !artifact.has_quantized_s);
  std::uint32_t section_count = 1u;  // config is always present
  if (write_s) ++section_count;
  if (artifact.has_low_rank) ++section_count;
  if (artifact.has_quantized_s) ++section_count;
  if (artifact.has_hot_rows) ++section_count;
  if (artifact.has_adapted_tensors) ++section_count;
  if (artifact.has_shards) {
    // Manifest + one section per shard (float or quantized) + the
    // boundary (float CSR or quantized).
    section_count +=
        2u + static_cast<std::uint32_t>(artifact.shards.num_shards());
  }
  writer.WriteU32(section_count);

  BinaryWriter config_writer;
  SerializeConfig(artifact.config, config_writer);
  AppendSection(kSectionConfig, config_writer.buffer(), writer);

  if (write_s) {
    BinaryWriter s_writer;
    artifact.s.Serialize(s_writer);
    AppendSection(kSectionScoreMatrix, s_writer.buffer(), writer);
  }

  if (artifact.has_low_rank) {
    BinaryWriter factor_writer;
    artifact.low_rank.Serialize(factor_writer);
    AppendSection(kSectionLowRankFactors, factor_writer.buffer(), writer);
  }

  if (artifact.has_quantized_s) {
    BinaryWriter q_writer;
    artifact.quantized_s.Serialize(q_writer);
    AppendSection(kSectionQuantizedScores, q_writer.buffer(), writer);
  }

  if (artifact.has_hot_rows) {
    BinaryWriter hot_writer;
    artifact.hot_rows.Serialize(hot_writer);
    AppendSection(kSectionHotCache, hot_writer.buffer(), writer);
  }

  if (artifact.has_adapted_tensors) {
    BinaryWriter tensor_writer;
    tensor_writer.WriteU64(artifact.adapted_tensors.size());
    for (const SparseTensor3& tensor : artifact.adapted_tensors) {
      tensor.Serialize(tensor_writer);
    }
    AppendSection(kSectionAdaptedTensors, tensor_writer.buffer(), writer);
  }

  if (artifact.has_shards) {
    const ShardedScores& shards = artifact.shards;
    BinaryWriter manifest_writer;
    manifest_writer.WriteU64(shards.num_users());
    manifest_writer.WriteU64(shards.num_shards());
    for (const ModelShard& shard : shards.shards()) {
      manifest_writer.WriteU64(shard.users.size());
      manifest_writer.WriteU32(shard.users.front());
      manifest_writer.WriteU32(shard.users.back());
    }
    AppendSection(kSectionShardManifest, manifest_writer.buffer(), writer);

    for (std::size_t i = 0; i < shards.num_shards(); ++i) {
      const ModelShard& shard = shards.shards()[i];
      BinaryWriter shard_writer;
      shard_writer.WriteU64(i);
      if (shard.has_quantized) {
        shard_writer.WriteU64(shard.users.size());
        for (const std::uint32_t u : shard.users) shard_writer.WriteU32(u);
        shard.quantized.Serialize(shard_writer);
        AppendSection(kSectionQuantizedShard, shard_writer.buffer(), writer);
      } else {
        shard.Serialize(shard_writer);
        AppendSection(kSectionShard, shard_writer.buffer(), writer);
      }
    }

    if (shards.has_quantized_boundary()) {
      BinaryWriter boundary_writer;
      shards.quantized_boundary().Serialize(boundary_writer);
      AppendSection(kSectionQuantizedBoundary, boundary_writer.buffer(),
                    writer);
    } else {
      BinaryWriter boundary_writer;
      shards.boundary().Serialize(boundary_writer);
      AppendSection(kSectionBoundary, boundary_writer.buffer(), writer);
    }
  }
  return writer.TakeBuffer();
}

Result<ModelArtifact> DeserializeModelArtifact(const std::string& bytes) {
  BinaryReader reader(bytes);
  char magic[sizeof(kMagic)];
  SLAMPRED_RETURN_NOT_OK(reader.ReadBytes(magic, sizeof(magic)));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::IoError(
        "bad magic at offset 0: not a SLAMPRED model artifact");
  }
  const std::size_t version_offset = reader.offset();
  auto version = reader.ReadU32();
  if (!version.ok()) return version.status();
  if (version.value() != kModelArtifactFormatVersion) {
    return Status::IoError(
        "unsupported artifact format version " +
        std::to_string(version.value()) + " at offset " +
        std::to_string(version_offset) + " (this build reads version " +
        std::to_string(kModelArtifactFormatVersion) + ")");
  }
  auto section_count = reader.ReadU32();
  if (!section_count.ok()) return section_count.status();

  ModelArtifact artifact;
  bool have_config = false;
  bool have_s = false;
  bool have_low_rank = false;
  bool have_manifest = false;
  bool have_boundary = false;
  bool have_quantized_boundary = false;
  std::uint64_t manifest_users = 0;
  std::vector<std::uint64_t> manifest_sizes;
  std::vector<std::pair<std::uint64_t, ModelShard>> loaded_shards;
  CsrMatrix boundary;
  QuantizedSymmetricCsr quantized_boundary;
  for (std::uint32_t i = 0; i < section_count.value(); ++i) {
    const std::size_t section_offset = reader.offset();
    auto id = reader.ReadU32();
    if (!id.ok()) return id.status();
    auto payload_size = reader.ReadU64();
    if (!payload_size.ok()) return payload_size.status();
    if (payload_size.value() > reader.remaining()) {
      return reader.Truncated(
          static_cast<std::size_t>(payload_size.value()), "section payload");
    }
    const unsigned char* payload = reader.current();
    const std::size_t size = static_cast<std::size_t>(payload_size.value());
    SLAMPRED_RETURN_NOT_OK(reader.Skip(size));
    const std::size_t crc_offset = reader.offset();
    auto stored_crc = reader.ReadU32();
    if (!stored_crc.ok()) return stored_crc.status();
    const std::uint32_t computed_crc = Crc32(payload, size);
    if (stored_crc.value() != computed_crc) {
      return Status::IoError(
          "checksum mismatch in section " + std::to_string(id.value()) +
          " starting at offset " + std::to_string(section_offset) +
          " (stored crc at offset " + std::to_string(crc_offset) + ")");
    }

    BinaryReader section(payload, size);
    switch (id.value()) {
      case kSectionConfig: {
        auto config = DeserializeConfig(section);
        if (!config.ok()) return config.status();
        artifact.config = std::move(config).value();
        have_config = true;
        break;
      }
      case kSectionScoreMatrix: {
        auto s = Matrix::Deserialize(section);
        if (!s.ok()) return s.status();
        artifact.s = std::move(s).value();
        have_s = true;
        break;
      }
      case kSectionLowRankFactors: {
        auto factors = FactoredMatrix::Deserialize(section);
        if (!factors.ok()) return factors.status();
        artifact.low_rank = std::move(factors).value();
        artifact.has_low_rank = true;
        have_low_rank = true;
        break;
      }
      case kSectionAdaptedTensors: {
        auto count = section.ReadU64();
        if (!count.ok()) return count.status();
        artifact.adapted_tensors.clear();
        for (std::uint64_t k = 0; k < count.value(); ++k) {
          auto tensor = SparseTensor3::Deserialize(section);
          if (!tensor.ok()) return tensor.status();
          artifact.adapted_tensors.push_back(std::move(tensor).value());
        }
        artifact.has_adapted_tensors = true;
        break;
      }
      case kSectionShardManifest: {
        auto users = section.ReadU64();
        if (!users.ok()) return users.status();
        manifest_users = users.value();
        auto shard_count = section.ReadU64();
        if (!shard_count.ok()) return shard_count.status();
        for (std::uint64_t k = 0; k < shard_count.value(); ++k) {
          auto shard_users = section.ReadU64();
          if (!shard_users.ok()) return shard_users.status();
          auto first = section.ReadU32();
          if (!first.ok()) return first.status();
          auto last = section.ReadU32();
          if (!last.ok()) return last.status();
          manifest_sizes.push_back(shard_users.value());
        }
        have_manifest = true;
        break;
      }
      case kSectionShard: {
        auto index = section.ReadU64();
        if (!index.ok()) return index.status();
        auto shard = ModelShard::Deserialize(section);
        if (!shard.ok()) return shard.status();
        loaded_shards.emplace_back(index.value(), std::move(shard).value());
        break;
      }
      case kSectionBoundary: {
        auto csr = CsrMatrix::Deserialize(section);
        if (!csr.ok()) return csr.status();
        boundary = std::move(csr).value();
        have_boundary = true;
        break;
      }
      case kSectionQuantizedScores: {
        auto q = QuantizedMatrix::Deserialize(section);
        if (!q.ok()) return q.status();
        SLAMPRED_RETURN_NOT_OK(q.value().Validate());
        artifact.quantized_s = std::move(q).value();
        artifact.has_quantized_s = true;
        break;
      }
      case kSectionQuantizedShard: {
        auto index = section.ReadU64();
        if (!index.ok()) return index.status();
        auto count = section.ReadU64();
        if (!count.ok()) return count.status();
        if (count.value() > section.remaining() / sizeof(std::uint32_t)) {
          return section.Truncated(
              static_cast<std::size_t>(count.value()) * sizeof(std::uint32_t),
              "quantized shard users");
        }
        ModelShard shard;
        shard.users.reserve(static_cast<std::size_t>(count.value()));
        for (std::uint64_t k = 0; k < count.value(); ++k) {
          auto user = section.ReadU32();
          if (!user.ok()) return user.status();
          shard.users.push_back(user.value());
        }
        auto block = QuantizedSymmetricDense::Deserialize(section);
        if (!block.ok()) return block.status();
        shard.quantized = std::move(block).value();
        shard.has_quantized = true;
        SLAMPRED_RETURN_NOT_OK(shard.Validate());
        loaded_shards.emplace_back(index.value(), std::move(shard));
        break;
      }
      case kSectionQuantizedBoundary: {
        auto q = QuantizedSymmetricCsr::Deserialize(section);
        if (!q.ok()) return q.status();
        quantized_boundary = std::move(q).value();
        have_quantized_boundary = true;
        break;
      }
      case kSectionHotCache: {
        auto cache = HotRowCache::Deserialize(section);
        if (!cache.ok()) return cache.status();
        artifact.hot_rows = std::move(cache).value();
        artifact.has_hot_rows = true;
        break;
      }
      default:
        // Checksum-verified but unknown: skip (additive growth within a
        // format version stays readable).
        break;
    }
  }
  if (have_manifest || !loaded_shards.empty()) {
    if (!have_manifest) {
      return Status::IoError(
          "sharded artifact carries shard sections but no manifest");
    }
    if (loaded_shards.size() != manifest_sizes.size()) {
      return Status::IoError(
          "sharded artifact manifest names " +
          std::to_string(manifest_sizes.size()) + " shards but " +
          std::to_string(loaded_shards.size()) + " shard sections follow");
    }
    std::sort(loaded_shards.begin(), loaded_shards.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<ModelShard> shards;
    shards.reserve(loaded_shards.size());
    for (std::size_t k = 0; k < loaded_shards.size(); ++k) {
      if (loaded_shards[k].first != k) {
        return Status::IoError("sharded artifact shard index " +
                               std::to_string(k) + " is missing");
      }
      if (loaded_shards[k].second.users.size() != manifest_sizes[k]) {
        return Status::IoError(
            "shard " + std::to_string(k) + " covers " +
            std::to_string(loaded_shards[k].second.users.size()) +
            " users but the manifest promises " +
            std::to_string(manifest_sizes[k]));
      }
      shards.push_back(std::move(loaded_shards[k].second));
    }
    if (!have_boundary && !have_quantized_boundary) {
      return Status::IoError("sharded artifact is missing its boundary "
                             "section");
    }
    auto sharded = ShardedScores::Create(
        std::move(shards), std::move(boundary),
        static_cast<std::size_t>(manifest_users));
    if (!sharded.ok()) {
      return Status::IoError("sharded artifact is inconsistent: " +
                             sharded.status().message());
    }
    artifact.shards = std::move(sharded).value();
    if (have_quantized_boundary) {
      Status attached =
          artifact.shards.AttachQuantizedBoundary(std::move(quantized_boundary));
      if (!attached.ok()) {
        return Status::IoError("sharded artifact is inconsistent: " +
                               attached.message());
      }
    }
    artifact.has_shards = true;
  }
  if (!have_config || (!have_s && !have_low_rank && !artifact.has_shards &&
                       !artifact.has_quantized_s)) {
    return Status::IoError(
        "artifact is missing a required section (config and a score "
        "matrix — dense, low-rank factors, quantized scores, or shards — "
        "are mandatory)");
  }
  if (artifact.s.rows() != artifact.s.cols()) {
    return Status::IoError("artifact score matrix is not square: " +
                           std::to_string(artifact.s.rows()) + "x" +
                           std::to_string(artifact.s.cols()));
  }
  if (artifact.has_low_rank &&
      artifact.low_rank.rows() != artifact.low_rank.cols()) {
    return Status::IoError(
        "artifact low-rank factors are not square: " +
        std::to_string(artifact.low_rank.rows()) + "x" +
        std::to_string(artifact.low_rank.cols()));
  }
  if (artifact.has_quantized_s &&
      artifact.quantized_s.rows() != artifact.quantized_s.cols()) {
    return Status::IoError(
        "artifact quantized score matrix is not square: " +
        std::to_string(artifact.quantized_s.rows()) + "x" +
        std::to_string(artifact.quantized_s.cols()));
  }
  // The serialized config predates the factored backend and the
  // partitioner (their fields are not part of the fixed layout), so both
  // are inferred from the sections present — a low-rank artifact serves
  // factored scores; a sharded one marks itself partitioned.
  if (artifact.has_low_rank) {
    artifact.config.solver_backend = SolverBackend::kFactored;
  }
  if (artifact.has_shards) {
    artifact.config.partition.mode = PartitionMode::kAuto;
  }
  return artifact;
}

Status SaveModelArtifact(const ModelArtifact& artifact,
                         const std::string& path) {
  return WriteStringToFile(SerializeModelArtifact(artifact), path);
}

std::string LastGoodArtifactPath(const std::string& path) {
  return path + ".last_good";
}

Status WriteArtifactAtomic(const ModelArtifact& artifact,
                           const std::string& path) {
  const std::string bytes = SerializeModelArtifact(artifact);
  SLAMPRED_RETURN_NOT_OK(WriteFileAtomic(bytes, path));
  return WriteFileAtomic(bytes, LastGoodArtifactPath(path));
}

Result<ModelArtifact> LoadModelArtifact(const std::string& path) {
  SLAMPRED_RETURN_NOT_OK(InjectedArtifactFault());
  auto bytes = ReadFileToString(path);
  if (!bytes.ok()) return bytes.status();
  auto artifact = DeserializeModelArtifact(bytes.value());
  if (!artifact.ok()) {
    return Status(artifact.status().code(),
                  path + ": " + artifact.status().message());
  }
  return artifact;
}

}  // namespace slampred
