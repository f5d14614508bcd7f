#include "ceaff/serve/shard_worker.h"

#include <cstdio>
#include <memory>
#include <utility>

#include "ceaff/common/cancellation.h"
#include "ceaff/common/failpoint.h"
#include "ceaff/serve/alignment_index.h"
#include "ceaff/serve/topk_scan.h"
#include "ceaff/text/word_embedding.h"

namespace ceaff::serve {

namespace {

/// Decoded kTopKRequest body.
struct TopKRequest {
  std::string query;
  uint64_t k = 0;
  bool allow_structural = true;
  uint64_t deadline_ms = 0;  // 0 = no deadline
};

bool DecodeTopKRequest(const std::string& payload, TopKRequest* request) {
  BinReader reader(payload);
  return reader.Str(&request->query) && reader.U64(&request->k) &&
         reader.Bool(&request->allow_structural) &&
         reader.U64(&request->deadline_ms) && reader.Done();
}

}  // namespace

int ShardWorkerMain(MessagePipe pipe, const ShardConfig& config) {
  if (!config.failpoint_spec.empty()) {
    // Replace (not merge) the inherited arms: a drill targets ONE shard,
    // and the spec the router hands this child is the complete picture.
    const Status armed = failpoint::Configure(config.failpoint_spec);
    if (!armed.ok()) {
      std::fprintf(stderr, "shard %zu: bad failpoint spec: %s\n",
                   config.shard_id, armed.ToString().c_str());
      return 1;
    }
  }

  auto index_or = LoadAlignmentIndex(config.index_path);
  if (!index_or.ok()) {
    std::fprintf(stderr, "shard %zu: cannot load index: %s\n",
                 config.shard_id, index_or.status().ToString().c_str());
    return 3;
  }
  const AlignmentIndex index = std::move(index_or).value();
  // Same query-side embedder the single-process service builds — scores
  // must not depend on which process computes them.
  const text::WordEmbeddingStore embedder(
      index.target_name_emb.cols() > 0 ? index.target_name_emb.cols()
                                       : index.source_name_emb.cols(),
      index.semantic_seed);

  TopKScanRange range;
  range.begin = config.target_begin;
  range.end = config.target_end;

  for (;;) {
    auto message_or = pipe.Recv(/*timeout_ms=*/-1);
    if (!message_or.ok()) {
      // EOF means the router is gone; a worker with no router has no
      // purpose. Anything else is a framing bug — exit nonzero so the
      // supervisor's waitpid sees an abnormal death.
      return message_or.status().IsUnavailable() ? 0 : 1;
    }
    const IpcMessage& message = message_or.value();
    Status sent = Status::OK();
    switch (message.type) {
      case IpcType::kPing: {
        BinWriter w;
        w.U64(range.begin);
        w.U64(range.end);
        w.U64(config.generation);
        sent = pipe.Send(IpcType::kPong, w.Take());
        break;
      }
      case IpcType::kTopKRequest: {
        TopKRequest request;
        if (!DecodeTopKRequest(message.payload, &request)) {
          sent = pipe.Send(
              IpcType::kTopKResponse,
              EncodeTopKResponse(
                  Status::DataLoss("shard received malformed topk request")));
          break;
        }
        CancellationToken token;
        const CancellationToken* cancel = nullptr;
        if (request.deadline_ms > 0) {
          token.SetDeadlineAfterMillis(
              static_cast<int64_t>(request.deadline_ms));
          cancel = &token;
        }
        StatusOr<TopKResult> result =
            TopKScan(index, embedder, request.query, request.k,
                     request.allow_structural, cancel, range, config.ann);
        if (result.ok()) result->generation = config.generation;
        sent = pipe.Send(IpcType::kTopKResponse, EncodeTopKResponse(result));
        break;
      }
      case IpcType::kPairRequest: {
        BinReader reader(message.payload);
        std::string name;
        StatusOr<PairAnswer> answer =
            reader.Str(&name) && reader.Done()
                ? LookupPairInIndex(index, name)
                : StatusOr<PairAnswer>(Status::DataLoss(
                      "shard received malformed pair request"));
        sent = pipe.Send(IpcType::kPairResponse, EncodePairResponse(answer));
        break;
      }
      case IpcType::kShutdown:
        return 0;
      case IpcType::kDrain:
        // Rolling-reload handoff: the ack tells the router this worker left
        // the fleet at a frame boundary (no reply will ever be torn). Exit
        // immediately after — the replacement process is already queued.
        (void)pipe.Send(IpcType::kDrainAck, "");
        return 0;
      default:
        // An unknown request type on a CRC-clean frame is a version skew
        // between router and worker — impossible for fork children, fatal
        // if it ever happens.
        std::fprintf(stderr, "shard %zu: unknown ipc message type %u\n",
                     config.shard_id,
                     static_cast<unsigned>(message.type));
        return 1;
    }
    if (!sent.ok()) {
      return sent.IsUnavailable() ? 0 : 1;
    }
  }
}

}  // namespace ceaff::serve
