#include "noc/router.h"

#include "common/log.h"
#include "noc/network_interface.h"

namespace approxnoc {

namespace {

/** i + 1 wrapped to [0, n): the round-robin step, without a division. */
inline unsigned
next_wrapped(unsigned i, unsigned n)
{
    return i + 1 == n ? 0 : i + 1;
}

} // namespace

Router::Router(RouterId id, const NocConfig &cfg, std::vector<Route> routes,
               NocActivity &activity)
    : id_(id), cfg_(cfg), routes_(std::move(routes)),
      n_ports_(kLocalBase + cfg.concentration), activity_(activity)
{
    ANOC_ASSERT(routes_.size() == cfg_.routers(),
                "route table of router ", id_, " has ", routes_.size(),
                " entries for ", cfg_.routers(), " routers");
    in_.resize(n_ports_);
    out_.resize(n_ports_);
    grants_.resize(n_ports_);
    rr_vc_.resize(n_ports_, 0);
    vcs_.resize(std::size_t{n_ports_} * cfg_.vcs);
    slots_.resize(vcs_.size() * cfg_.vc_depth);
    for (std::size_t i = 0; i < vcs_.size(); ++i)
        vcs_[i].base = static_cast<unsigned>(i * cfg_.vc_depth);
    credits_.assign(std::size_t{n_ports_} * cfg_.vcs, cfg_.vc_depth);
    vc_busy_.assign(std::size_t{n_ports_} * cfg_.vcs, 0);
}

void
Router::connectOutput(unsigned out_port, Router *peer, unsigned peer_in_port)
{
    ANOC_ASSERT(out_port < n_ports_, "output port out of range");
    out_[out_port].peer = peer;
    out_[out_port].peer_port = peer_in_port;
    peer->connectInput(peer_in_port, this, out_port);
}

void
Router::connectEjection(unsigned out_port, NetworkInterface *ni)
{
    ANOC_ASSERT(out_port < n_ports_, "output port out of range");
    out_[out_port].ni = ni;
}

void
Router::connectInput(unsigned in_port, FlitSource *up, unsigned up_port)
{
    ANOC_ASSERT(in_port < n_ports_, "input port out of range");
    in_[in_port].up = up;
    in_[in_port].up_port = up_port;
}

void
Router::setLinkInfo(unsigned out_port, unsigned dim, bool wrap)
{
    ANOC_ASSERT(out_port < n_ports_, "output port out of range");
    ANOC_ASSERT(cfg_.vcs % 2 == 0,
                "dateline VC classes need an even VC count");
    OutPort &op = out_[out_port];
    op.dim = dim;
    op.wrap = wrap;
    class_aware_ = true;
    if (op.peer) {
        op.peer->in_[op.peer_port].dim = dim;
        op.peer->class_aware_ = true;
    }
}

int
Router::allowedVcClass(const InPort &in, unsigned in_vc,
                       const OutPort &out) const
{
    if (!class_aware_ || out.isEjection())
        return -1; // unrestricted
    unsigned half = cfg_.vcs / 2;
    unsigned in_class = in_vc / half;
    if (out.wrap)
        return 1; // crossing the dateline
    if (out.dim != in.dim)
        return 0; // entering a new ring (or injected locally)
    return static_cast<int>(in_class);
}

unsigned
Router::portCredits(unsigned out_port) const
{
    const unsigned *c = &credits_[std::size_t{out_port} * cfg_.vcs];
    unsigned sum = 0;
    for (unsigned v = 0; v < cfg_.vcs; ++v)
        sum += c[v];
    return sum;
}

unsigned
Router::selectRoute(const Packet &pkt) const
{
    const RouterId dest = cfg_.routerOf(pkt.dst);
    if (dest == id_)
        return kLocalBase + cfg_.localPortOf(pkt.dst);
    const Route &r = routes_[dest];
    ANOC_ASSERT(r.n > 0, "router ", id_, " has no route for packet");
    if (r.n == 1)
        return r.port[0];
    // Congestion-aware selection: the candidate whose downstream
    // buffers have the most free credits wins; ties keep preference
    // order.
    unsigned best = r.port[0];
    unsigned best_credits = portCredits(best);
    for (unsigned k = 1; k < r.n; ++k) {
        unsigned credits = portCredits(r.port[k]);
        if (credits > best_credits) {
            best = r.port[k];
            best_credits = credits;
        }
    }
    return best;
}

void
Router::acceptFlit(unsigned in_port, unsigned vc, Flit f)
{
    ANOC_ASSERT(in_port < n_ports_ && vc < cfg_.vcs,
                "acceptFlit port/vc out of range");
    InPort &port = in_[in_port];
    VcBuf &buf = vcs_[std::size_t{in_port} * cfg_.vcs + vc];
    ANOC_ASSERT(buf.count < cfg_.vc_depth,
                "buffer overflow at router ", id_, " port ", in_port,
                " vc ", vc, " — credit protocol violated");
    unsigned tail = buf.head + buf.count;
    if (tail >= cfg_.vc_depth)
        tail -= cfg_.vc_depth;
    slots_[buf.base + tail] = std::move(f);
    ++buf.count;
    ++port.count;
    ++buffered_;
    ++buffer_writes_;
    activity_.routers.set(id_);
}

void
Router::creditReturn(unsigned out_port, unsigned vc)
{
    ANOC_ASSERT(out_port < n_ports_ && vc < cfg_.vcs,
                "creditReturn port/vc out of range");
    unsigned &c = credits_[std::size_t{out_port} * cfg_.vcs + vc];
    ANOC_ASSERT(c < cfg_.vc_depth, "credit overflow at router ", id_,
                " port ", out_port, " vc ", vc);
    ++c;
}

void
Router::evaluate(Cycle now)
{
    // The network steps only routers that hold flits; empty input
    // ports are skipped.
    ANOC_ASSERT(buffered_ > 0, "router ", id_, " stepped while empty");
    const Cycle pipe = cfg_.router_stages - 1;
    std::size_t unseen = buffered_; // flits in ports not yet visited

    unsigned ip = static_cast<unsigned>((now - epoch_) % n_ports_);
    for (unsigned ii = 0; ii < n_ports_ && unseen > 0;
         ++ii, ip = next_wrapped(ip, n_ports_)) {
        InPort &port = in_[ip];
        if (port.count == 0)
            continue;
        unseen -= port.count;
        VcBuf *port_vcs = &vcs_[std::size_t{ip} * cfg_.vcs];
        unsigned vc = rr_vc_[ip];
        for (unsigned vv = 0; vv < cfg_.vcs;
             ++vv, vc = next_wrapped(vc, cfg_.vcs)) {
            VcBuf &buf = port_vcs[vc];
            if (buf.count == 0)
                continue;
            Flit &f = front(buf);
            if (f.arrival + pipe > now)
                continue; // still in BW/RC/VA stages

            if (f.isHead() && buf.route < 0)
                buf.route = static_cast<int>(selectRoute(*f.pkt));
            unsigned op_idx = static_cast<unsigned>(buf.route);
            OutPort &op = out_[op_idx];
            ANOC_ASSERT(op.connected(), "route to unconnected port ", op_idx,
                        " at router ", id_);
            if (grants_[op_idx].valid())
                continue; // output already claimed this cycle

            if (op.isEjection()) {
                grants_[op_idx] = Grant{static_cast<int>(ip),
                                        static_cast<int>(vc)};
                ++n_grants_;
                break; // one flit per input port per cycle
            }

            unsigned *credits = &credits_[std::size_t{op_idx} * cfg_.vcs];
            if (f.isHead() && buf.out_vc < 0) {
                // VC allocation: claim a free downstream VC within the
                // class the dateline discipline permits.
                std::uint8_t *busy = &vc_busy_[std::size_t{op_idx} * cfg_.vcs];
                unsigned lo = 0, hi = cfg_.vcs;
                int cls = allowedVcClass(port, vc, op);
                if (cls >= 0) {
                    unsigned half = cfg_.vcs / 2;
                    lo = static_cast<unsigned>(cls) * half;
                    hi = lo + half;
                }
                for (unsigned dvc = lo; dvc < hi; ++dvc) {
                    if (!busy[dvc] && credits[dvc] > 0) {
                        busy[dvc] = 1;
                        buf.out_vc = static_cast<int>(dvc);
                        ++vc_allocs_;
                        if (tracer_)
                            tracer_->instant(
                                telemetry::PacketTracer::routerTrack(id_),
                                "vc_alloc", now,
                                "{\"pkt\": " + std::to_string(f.pkt->id) +
                                    ", \"vc\": " + std::to_string(dvc) + "}");
                        break;
                    }
                }
                if (buf.out_vc < 0) {
                    ++vc_stalls_;
                    continue; // no VC available; try another VC/input
                }
            }
            if (buf.out_vc >= 0 &&
                credits[static_cast<unsigned>(buf.out_vc)] > 0) {
                grants_[op_idx] = Grant{static_cast<int>(ip),
                                        static_cast<int>(vc)};
                ++n_grants_;
                break;
            }
        }
    }
}

void
Router::advance(Cycle now)
{
    // Grants are consumed in ascending output-port order, which fixes
    // the order of ejections (deliveries) and downstream pushes.
    for (unsigned op_idx = 0; n_grants_ > 0; ++op_idx) {
        Grant &g = grants_[op_idx];
        if (!g.valid())
            continue;
        const unsigned ip = static_cast<unsigned>(g.in_port);
        const unsigned vc = static_cast<unsigned>(g.vc);
        g = Grant{};
        --n_grants_;

        InPort &port = in_[ip];
        VcBuf &buf = vcs_[std::size_t{ip} * cfg_.vcs + vc];
        ANOC_ASSERT(buf.count > 0, "granted VC drained unexpectedly");
        Flit f = std::move(front(buf));
        buf.head = next_wrapped(buf.head, cfg_.vc_depth);
        --buf.count;
        --port.count;
        --buffered_;
        ++flits_forwarded_;
        ++activity_.flit_moves;

        // Return the freed buffer slot upstream.
        if (port.up)
            port.up->creditReturn(port.up_port, vc);

        OutPort &op = out_[op_idx];
        bool tail = f.is_tail;
        if (op.isEjection()) {
            op.ni->acceptEjectedFlit(f, now);
        } else {
            unsigned dvc = static_cast<unsigned>(buf.out_vc);
            const std::size_t slot = std::size_t{op_idx} * cfg_.vcs + dvc;
            ANOC_ASSERT(credits_[slot] > 0, "forwarding without credit");
            --credits_[slot];
            f.arrival = now + 1;
            bool head = f.isHead();
            std::uint64_t pkt_id = f.pkt->id;
            op.peer->acceptFlit(op.peer_port, dvc, std::move(f));
            ++link_traversals_;
            if (tracer_ && head)
                tracer_->instant(telemetry::PacketTracer::routerTrack(id_),
                                 "hop", now,
                                 "{\"pkt\": " + std::to_string(pkt_id) +
                                     ", \"to\": " +
                                     std::to_string(op.peer->id()) + "}");
            if (tail)
                vc_busy_[slot] = 0;
        }
        if (tail) {
            buf.route = -1;
            buf.out_vc = -1;
        }
        rr_vc_[ip] = next_wrapped(vc, cfg_.vcs);
    }
    if (buffered_ == 0)
        activity_.routers.clear(id_);
}

} // namespace approxnoc
