/**
 * @file
 * Input-buffered virtual-channel wormhole router with a three-stage
 * pipeline (paper Table 1). Flits become eligible for switch traversal
 * (router_stages - 1) cycles after buffer write, modelling BW/RC and
 * VA/SA; ST+LT moves them to the next hop in one cycle, so the
 * zero-load per-hop latency is router_stages cycles.
 *
 * Credit-based flow control: the upstream side of every link owns the
 * credit counters and the VC allocation state of the downstream input
 * buffer, which is the conventional arrangement.
 *
 * Active-set stepping: the router is not a Clocked component. Its
 * Network steps it only while it holds a buffered flit. acceptFlit()
 * sets the router's bit in the network's active set, and advance()
 * clears it once the last flit has left. Nothing else changes per
 * cycle in an empty router: the input round-robin pointer is derived
 * from the cycle count, (now - epoch) mod ports, rather than rotated
 * each cycle. Within a cycle, work is spent only on input ports that
 * hold flits (a per-port count). Each VC buffer is a fixed ring of
 * vc_depth slots; flits move, never copy.
 */
#ifndef APPROXNOC_NOC_ROUTER_H
#define APPROXNOC_NOC_ROUTER_H

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "noc/active_set.h"
#include "noc/noc_config.h"
#include "noc/packet.h"
#include "telemetry/packet_tracer.h"

namespace approxnoc {

class NetworkInterface;

/** Anything that owns an output link and its credits (router or NI). */
class FlitSource
{
  public:
    virtual ~FlitSource() = default;
    /** Downstream returns one credit for (our output port, vc). */
    virtual void creditReturn(unsigned out_port, unsigned vc) = 0;
};

/** The router proper. */
class Router : public FlitSource
{
  public:
    /**
     * The allowed output ports toward one destination router, in
     * preference order. Deterministic algorithms have one candidate;
     * west-first has two where it may adapt, and the router picks the
     * least congested (most downstream credits) at route-compute time.
     * The entry for the router itself is unused: a packet at its
     * destination router ejects at its endpoint's local port.
     */
    struct Route {
        std::uint8_t n = 0; ///< candidates in use
        std::uint8_t port[2] = {0, 0};
    };

    /**
     * @param routes one Route per destination router, by RouterId.
     * @param activity the owning network's work-tracking state; the
     *        router keeps its bit in activity.routers equal to
     *        occupancy() > 0 and counts its forwarded flits there.
     */
    Router(RouterId id, const NocConfig &cfg, std::vector<Route> routes,
           NocActivity &activity);

    RouterId id() const { return id_; }
    unsigned numPorts() const { return n_ports_; }

    /** @name Wiring (done once by the Network builder) */
    ///@{
    /** Connect output @p out_port to @p peer's input @p peer_in_port. */
    void connectOutput(unsigned out_port, Router *peer, unsigned peer_in_port);
    /** Make output @p out_port an ejection port into @p ni. */
    void connectEjection(unsigned out_port, NetworkInterface *ni);
    /** Record who feeds input @p in_port (for credit returns). */
    void connectInput(unsigned in_port, FlitSource *up, unsigned up_port);

    /**
     * Tag a link for dateline VC management (torus): @p out_port
     * travels dimension @p dim (0 = X, 1 = Y) and @p wrap marks the
     * wrap-around link; the matching downstream input is tagged too.
     * Enables class-aware VC allocation on this router.
     */
    void setLinkInfo(unsigned out_port, unsigned dim, bool wrap);

    /** First cycle the router is stepped: the input round-robin starts
     * at port 0 in that cycle and moves one port per cycle. */
    void setEpoch(Cycle c) { epoch_ = c; }
    ///@}

    /** @name Link interface (called by the upstream's advance phase) */
    ///@{
    /** Deposit a flit into input buffer (in_port, vc). Must have space. */
    void acceptFlit(unsigned in_port, unsigned vc, Flit f);
    void creditReturn(unsigned out_port, unsigned vc) override;
    ///@}

    /** Phase 1: switch allocation. Only called while occupancy() > 0. */
    void evaluate(Cycle now);
    /** Phase 2: move the granted flits; clears the router's active bit
     * when it is left empty. */
    void advance(Cycle now);

    /** Total buffered flits (drain detection). O(1). */
    std::size_t occupancy() const { return buffered_; }

    /** @name Activity counters (power model / watchdog) */
    ///@{
    std::uint64_t flitsForwarded() const { return flits_forwarded_; }
    std::uint64_t bufferWrites() const { return buffer_writes_; }
    std::uint64_t vcAllocations() const { return vc_allocs_; }
    std::uint64_t linkTraversals() const { return link_traversals_; }
    /** Cycles a head flit wanted a downstream VC and none was free. */
    std::uint64_t vcStalls() const { return vc_stalls_; }
    ///@}

    /**
     * Attach a lifecycle tracer (null detaches). The router emits
     * per-head-flit "vc_alloc" and "hop" instants on its own track;
     * when detached the hooks cost one null check each.
     */
    void bindTracer(telemetry::PacketTracer *t) { tracer_ = t; }

  private:
    /** One VC's input buffer: a ring of vc_depth slots in slots_. */
    struct VcBuf {
        unsigned base = 0;  ///< first slot of this ring in slots_
        unsigned head = 0;  ///< ring index of the front flit
        unsigned count = 0; ///< buffered flits
        int route = -1;  ///< output port of the packet at the head
        int out_vc = -1; ///< downstream VC allocated to that packet
    };
    /** Dimension tag for local/injection ports. */
    static constexpr unsigned kDimLocal = 0xFF;

    struct InPort {
        unsigned count = 0; ///< buffered flits over all VCs (wakeup)
        FlitSource *up = nullptr;
        unsigned up_port = 0;
        unsigned dim = kDimLocal;
    };
    struct OutPort {
        Router *peer = nullptr;
        unsigned peer_port = 0;
        NetworkInterface *ni = nullptr;
        unsigned dim = kDimLocal;
        bool wrap = false;

        bool isEjection() const { return ni != nullptr; }
        bool connected() const { return peer != nullptr || ni != nullptr; }
    };
    struct Grant {
        int in_port = -1;
        int vc = -1;
        bool valid() const { return in_port >= 0; }
    };

    RouterId id_;
    NocConfig cfg_;
    std::vector<Route> routes_; ///< by destination router
    unsigned n_ports_;

    /** Pipeline state is written by this router's own
     * evaluate/advance; peers deposit flits and credits through
     * acceptFlit/creditReturn. The wakeup counts (buffered_,
     * InPort::count) change only on those same paths. */
    std::vector<InPort> in_;
    std::vector<OutPort> out_;
    std::vector<VcBuf> vcs_;  ///< by (in port, vc)
    std::vector<Flit> slots_; ///< every VC ring, by (port, vc)
    std::size_t buffered_ = 0; ///< flits in all rings
    /** Downstream credits and VC allocation, by (out port, vc). */
    std::vector<unsigned> credits_;
    std::vector<std::uint8_t> vc_busy_;
    /** Per output port; set by evaluate, consumed and cleared by advance. */
    std::vector<Grant> grants_;
    unsigned n_grants_ = 0;

    /** Downstream VC class a flit may allocate (dateline discipline). */
    int allowedVcClass(const InPort &in, unsigned in_vc,
                       const OutPort &out) const;

    /** Resolve the route candidates to one output port (adaptive). */
    unsigned selectRoute(const Packet &pkt) const;

    /** Free credits over every VC of output @p out_port. */
    unsigned portCredits(unsigned out_port) const;

    Flit &front(const VcBuf &b) { return slots_[b.base + b.head]; }

    NocActivity &activity_;
    Cycle epoch_ = 0; ///< see setEpoch()
    std::vector<unsigned> rr_vc_; ///< per-input round-robin over VCs
    bool class_aware_ = false; ///< any link tagged => dateline VCs on

    std::uint64_t flits_forwarded_ = 0;
    std::uint64_t buffer_writes_ = 0;
    std::uint64_t vc_allocs_ = 0;
    std::uint64_t link_traversals_ = 0;
    std::uint64_t vc_stalls_ = 0;

    telemetry::PacketTracer *tracer_ = nullptr;
};

} // namespace approxnoc

#endif // APPROXNOC_NOC_ROUTER_H
