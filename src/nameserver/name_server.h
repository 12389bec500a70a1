#ifndef RAINBOW_NAMESERVER_NAME_SERVER_H_
#define RAINBOW_NAMESERVER_NAME_SERVER_H_

#include <cstdint>
#include <memory>

#include "catalog/catalog.h"
#include "common/trace.h"
#include "net/network.h"
#include "net/rpc.h"

namespace rainbow {

/// The Rainbow name server: a network actor (addressable at
/// kNameServerId) answering from the replication schema. Coordinators
/// query it per item; "any site can query the name server to get
/// pertinent information" (paper §2).
///
/// There is exactly one name server per Rainbow instance. It can be
/// crashed and recovered by the fault injector like any site; while
/// down, lookups time out at the coordinators. By default a site asks
/// once per item until it crashes (cache_schema), so items it already
/// looked up stay reachable through an outage.
class NameServer {
 public:
  /// Reads `catalog` by reference; it must outlive the name server.
  NameServer(const Catalog& catalog, Network* net);

  /// Registers the network handler. Call once.
  void Start();

  void Crash();
  void Recover();
  bool crashed() const { return crashed_; }

  /// Structured tracing of the name server's crash/recover records.
  /// Optional; null disables.
  void set_collector(TraceCollector* c) { collector_ = c; }

  uint64_t lookups_served() const { return lookups_served_; }

  const RpcEndpoint& rpc() const { return *rpc_; }

 private:
  void HandleMessage(const Message& m, const RpcContext& ctx);
  void Emit(TraceEventKind kind);

  const Catalog& catalog_;
  Network* net_;
  TraceCollector* collector_ = nullptr;
  /// Replica-side RPC endpoint: suppresses retransmitted lookups and
  /// re-answers them from the reply cache. The name server never makes
  /// outgoing calls.
  std::unique_ptr<RpcEndpoint> rpc_;
  bool crashed_ = false;
  uint64_t lookups_served_ = 0;
};

}  // namespace rainbow

#endif  // RAINBOW_NAMESERVER_NAME_SERVER_H_
