#include "nameserver/name_server.h"

namespace rainbow {

NameServer::NameServer(const Catalog& catalog, Network* net)
    : catalog_(catalog),
      net_(net),
      rpc_(std::make_unique<RpcEndpoint>(net->sim(), net, kNameServerId,
                                         /*seed=*/0)) {}

void NameServer::Start() {
  net_->RegisterHandler(kNameServerId, [this](const Message& m) {
    if (crashed_) return;
    RpcDelivery d = rpc_->Accept(m);
    if (d.consumed) return;  // duplicate lookup, re-answered from cache
    HandleMessage(m, d.ctx);
  });
}

void NameServer::Crash() {
  crashed_ = true;
  Emit(TraceEventKind::kSiteCrash);
  net_->SetSiteUp(kNameServerId, false);
  rpc_->Reset();
}

void NameServer::Recover() {
  crashed_ = false;
  Emit(TraceEventKind::kSiteRecover);
  net_->SetSiteUp(kNameServerId, true);
}

void NameServer::Emit(TraceEventKind kind) {
  if (collector_ == nullptr || !collector_->enabled()) return;
  TraceRecord rec;
  rec.time = net_->sim()->Now();
  rec.kind = kind;
  rec.site = kNameServerId;
  collector_->Emit(std::move(rec));
}

void NameServer::HandleMessage(const Message& m, const RpcContext& ctx) {
  const auto* req = std::get_if<NsLookupRequest>(&m.payload);
  if (req == nullptr) return;  // the name server only answers lookups
  ++lookups_served_;
  NsLookupReply reply;
  reply.txn = req->txn;
  reply.item = req->item;
  auto item = catalog_.schema().Find(req->item);
  if (item.ok()) {
    reply.found = true;
    reply.copies = (*item)->copies;
    reply.votes = (*item)->votes;
    reply.read_quorum = (*item)->read_quorum;
    reply.write_quorum = (*item)->write_quorum;
  }
  if (ctx.valid()) {
    rpc_->Reply(ctx, reply);
  } else {
    net_->Send(kNameServerId, m.from, reply);
  }
}

}  // namespace rainbow
