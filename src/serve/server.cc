#include "serve/server.hh"

#include <cstdlib>

#include "obs/trace.hh"
#include "util/logging.hh"

namespace specee::serve {

Server::Server(const engines::Pipeline &pipe, const ServerOptions &opts)
    : pipe_(pipe), opts_(opts)
{
    specee_assert(opts.workers >= 1, "server needs >= 1 worker, got %d",
                  opts.workers);
    engines_.reserve(static_cast<size_t>(opts.workers));
    for (int i = 0; i < opts.workers; ++i)
        engines_.push_back(pipe_.makeEngine(opts_.engine, opts_.spec));
}

void
Server::submit(Request r)
{
    specee_assert(r.gen_len > 0, "request %llu needs gen_len > 0, got %d",
                  static_cast<unsigned long long>(r.id), r.gen_len);
    std::lock_guard<std::mutex> lock(mu_);
    pending_.push_back(std::move(r));
}

void
Server::submit(std::vector<Request> rs)
{
    for (auto &r : rs)
        submit(std::move(r));
}

ServeReport
Server::drain()
{
    std::vector<Request> requests;
    {
        std::lock_guard<std::mutex> lock(mu_);
        requests.swap(pending_);
    }

    std::vector<engines::Engine *> engines;
    engines.reserve(engines_.size());
    for (auto &e : engines_)
        engines.push_back(e.get());

    // Resolve the trace destination: the env var wins over the
    // option so any run can be traced without touching its caller.
    std::string trace_path = opts_.trace_path;
    if (const char *env = std::getenv("SPECEE_TRACE");
        env != nullptr && env[0] != '\0')
        trace_path = env;

    ServeReport report;
    SchedulerOptions sopts = opts_.sched;
    if (!trace_path.empty())
        sopts.trace.enabled = true;
    report.fleet = runScheduler(sopts, pipe_, std::move(engines),
                                std::move(requests), report.outcomes,
                                opts_.on_token);

    if (!trace_path.empty()) {
        const bool ok = obs::writeChromeTrace(
            trace_path, report.fleet.trace, sopts.topology.devices,
            sopts.topology.prefill_devices);
        if (!ok)
            specee_warn("could not write trace to %s",
                        trace_path.c_str());
    }
    return report;
}

} // namespace specee::serve
