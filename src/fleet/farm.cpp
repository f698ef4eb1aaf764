#include "fleet/farm.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/atomic_file.hpp"
#include "common/journal.hpp"
#include "common/numparse.hpp"
#include "common/path.hpp"
#include "fault/fault.hpp"
#include "fleet/report.hpp"
#include "fleet/store.hpp"

namespace ulpmc::fleet {

namespace {

/// Supervisor poll period.
constexpr double kPollS = 0.05;

double now_s() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// %.17g rendering for doubles crossing the CLI boundary: enough digits
/// that the worker's strtod recovers the exact value.
std::string f64_arg(double v) {
    std::ostringstream ss;
    ss << std::setprecision(17) << v;
    return ss.str();
}

void mkdirs(const std::string& dir) {
    std::string path;
    for (std::size_t i = 0; i <= dir.size(); ++i) {
        if (i < dir.size() && dir[i] != '/') continue;
        path = dir.substr(0, i == dir.size() ? i : i + 1);
        if (path.empty() || path == "/") continue;
        if (mkdir(path.c_str(), 0777) != 0 && errno != EEXIST)
            throw FarmError("farm: cannot create directory: " + path + ": " +
                            std::strerror(errno));
    }
}

} // namespace

std::vector<ChaosEvent> chaos_schedule(const FarmOptions& opt) {
    std::vector<ChaosEvent> events;
    const unsigned total = opt.chaos_kills + opt.chaos_stalls;
    if (total == 0 || opt.workers == 0) return events;
    Rng rng(fault::mix_seed(opt.chaos_seed, 0xFA12Cull));
    std::vector<std::uint64_t> last(opt.workers, 0);
    for (unsigned i = 0; i < total; ++i) {
        ChaosEvent ev;
        ev.shard = rng.below(opt.workers);
        ev.stall = i >= opt.chaos_kills;
        const std::uint64_t n =
            shard_device_count(opt.fleet.devices, ev.shard, opt.workers);
        // Land the disruption strictly before the worker can finish: the
        // trigger sits in [1, ~60%] of the shard's device count, bumped
        // past the shard's previous trigger so restarts make progress
        // between consecutive events.
        const double frac = 0.10 + 0.50 * rng.uniform();
        ev.at_records = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(frac * static_cast<double>(n)));
        if (ev.at_records <= last[ev.shard]) ev.at_records = last[ev.shard] + 1;
        last[ev.shard] = ev.at_records;
        events.push_back(ev);
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const ChaosEvent& a, const ChaosEvent& b) {
                         return a.shard != b.shard ? a.shard < b.shard
                                                   : a.at_records < b.at_records;
                     });
    return events;
}

std::string chaos_at_arg(const std::vector<ChaosEvent>& events) {
    std::string arg;
    for (const ChaosEvent& ev : events) {
        if (!arg.empty()) arg += ',';
        arg += (ev.stall ? "stop@" : "kill@") + std::to_string(ev.at_records);
    }
    return arg;
}

bool parse_chaos_at(const std::string& arg, std::vector<ChaosEvent>& events) {
    events.clear();
    std::size_t pos = 0;
    for (;;) {
        const std::size_t comma = arg.find(',', pos);
        const std::string entry =
            arg.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
        ChaosEvent ev;
        if (entry.rfind("stop@", 0) == 0) {
            ev.stall = true;
        } else if (entry.rfind("kill@", 0) != 0) {
            return false;
        }
        const std::uint64_t floor = events.empty() ? 0 : events.back().at_records;
        if (!parse_u64(entry.substr(5), ev.at_records) || ev.at_records <= floor) return false;
        events.push_back(ev);
        if (comma == std::string::npos) return true;
        pos = comma + 1;
    }
}

double farm_backoff_s(double base_s, double max_s, unsigned restart, Rng& rng) {
    const unsigned exp = std::min(restart > 0 ? restart - 1 : 0u, 16u);
    const double nominal = std::min(max_s, base_s * static_cast<double>(1u << exp));
    // +-25% seeded jitter, capped AFTER jitter so max_s is a hard bound —
    // the BleLink::enter_backoff discipline (scenario/link.cpp).
    const double jittered = nominal * (0.75 + 0.5 * rng.uniform());
    return std::min(jittered, max_s);
}

void scan_journal(const std::string& path, JournalProgress& p) {
    JournalContents jc;
    try {
        jc = read_journal(path, p.offset);
        if (jc.file_bytes < p.offset) {
            // The journal shrank (a restart truncated a torn tail past our
            // scan point — possible only if our last read raced a partial
            // append). Rescan from scratch; the set dedups.
            p = JournalProgress{};
            jc = read_journal(path);
        }
    } catch (const JournalError&) {
        return; // no journal yet: no progress, not an error
    }
    p.bytes = jc.file_bytes;
    // Only complete, CRC-valid frames advance the offset; a frame still
    // being appended stays in the tail for the next poll.
    p.offset = jc.clean_bytes;
    for (const JournalFrame& fr : jc.frames) {
        if (fr.kind == kFleetRecordFrame && fr.payload.size() == sizeof(DeviceRecord)) {
            ++p.record_frames;
            std::uint64_t gdi = 0;
            std::memcpy(&gdi, fr.payload.data(), sizeof(gdi)); // gdi is the record's first field
            if (!p.gdis.insert(gdi).second) ++p.duplicate_records;
        } else if (fr.kind == kFleetHeartbeatFrame && fr.payload.size() == 16) {
            ++p.heartbeats;
            std::memcpy(&p.heartbeat_devices, fr.payload.data() + 8, 8);
        }
        // Unknown kinds (META included) advance the offset and nothing else.
    }
}

MergedFleet merge_stores(const FleetOptions& fleet, const scenario::Timeline& tl,
                         const std::string& timeline_name,
                         const std::vector<std::string>& store_paths) {
    if (store_paths.empty()) throw FarmError("merge: no shard stores");
    std::vector<LoadedStore> stores(store_paths.size());
    for (std::size_t i = 0; i < store_paths.size(); ++i) {
        try {
            stores[i] = read_store(store_paths[i]);
        } catch (const FleetStoreError& e) {
            throw FarmError(std::string("merge: ") + e.what());
        }
        const StoreHeader& h = stores[i].header;
        if (h.seed != fleet.seed || h.devices != fleet.devices || h.cohorts != fleet.cohorts) {
            std::ostringstream ss;
            ss << "merge: " << store_paths[i] << ": header (seed " << h.seed << ", devices "
               << h.devices << ", cohorts " << h.cohorts << ") disagrees with the spec (seed "
               << fleet.seed << ", devices " << fleet.devices << ", cohorts " << fleet.cohorts
               << ")";
            throw FarmError(ss.str());
        }
    }
    // Each store is placed by its own header's shard key, so the input
    // order is free; the set must be exactly shards 0..N-1 of a single N.
    const unsigned n = stores[0].header.shard_n;
    auto key = [&](std::size_t i) {
        return std::to_string(stores[i].header.shard_k) + "/" +
               std::to_string(stores[i].header.shard_n);
    };
    std::vector<std::size_t> by_shard(n, store_paths.size());
    for (std::size_t i = 0; i < stores.size(); ++i) {
        const StoreHeader& h = stores[i].header;
        if (h.shard_n != n)
            throw FarmError("merge: mixed shard counts: " + store_paths[0] + " is shard " +
                            key(0) + ", " + store_paths[i] + " is shard " + key(i));
        if (by_shard[h.shard_k] != store_paths.size())
            throw FarmError("merge: duplicate shard " + key(i) + ": " +
                            store_paths[by_shard[h.shard_k]] + " and " + store_paths[i]);
        by_shard[h.shard_k] = i;
    }
    for (unsigned k = 0; k < n; ++k)
        if (by_shard[k] == store_paths.size())
            throw FarmError("merge: incomplete shard set: shard " + std::to_string(k) + "/" +
                            std::to_string(n) + " is missing");

    // read_store proved each store holds exactly its shard's gdi sequence,
    // so the complete set covers [0, devices) once. What a header cannot
    // bind (the baseline fraction, --days) each record still carries.
    const std::uint64_t blocks = scenario::lifetime_blocks(tl, fleet.days);
    MergedFleet merged;
    merged.records.resize(fleet.devices);
    for (std::size_t i = 0; i < stores.size(); ++i) {
        for (const DeviceRecord& r : stores[i].records) {
            auto reject = [&](const std::string& why) {
                return FarmError("merge: " + store_paths[i] + ": device " +
                                 std::to_string(r.gdi) + why);
            };
            const DeviceSpec spec = device_spec(fleet, r.gdi);
            if (r.cohort != spec.cohort || r.arch != static_cast<std::uint8_t>(spec.arch) ||
                r.policy != static_cast<std::uint8_t>(spec.policy))
                throw reject(" does not match the spec's cohort/arch/policy "
                             "(seed, cohorts or baseline differ)");
            if (r.total_blocks != blocks)
                throw reject(" ran " + std::to_string(r.total_blocks) +
                             " blocks, the timeline and days imply " + std::to_string(blocks) +
                             " (days differ)");
            merged.records[r.gdi] = r;
        }
    }
    // Ascending-gdi aggregation over the full fleet: the exact code path
    // an unsharded run takes, which is what makes the merged JSON
    // byte-identical by construction.
    for (const DeviceRecord& r : merged.records) merged.aggregate.add(r);
    FleetOptions unsharded = fleet;
    unsharded.shard_k = 0;
    unsharded.shard_n = 1;
    std::ostringstream out;
    write_json(out, timeline_name, unsharded, tl.block_period_s, merged.aggregate,
               merged.records.size());
    merged.json = out.str();
    return merged;
}

Farm::Farm(const FarmOptions& opt, std::ostream* log) : opt_(opt), log_(log) {
    opt_.fleet.shard_k = 0; // the farm owns the split
    opt_.fleet.shard_n = 1;
    if (opt_.workers < 1) throw FarmError("farm: need at least one worker");
    if (opt_.workers > opt_.fleet.devices)
        throw FarmError("farm: more workers than devices leaves empty shards");
    if (opt_.heartbeat_s <= 0 || opt_.timeout_s <= 0 || opt_.term_grace_s < 0)
        throw FarmError("farm: heartbeat/timeout/grace periods must be positive");
    if (opt_.timeout_s <= opt_.heartbeat_s)
        throw FarmError("farm: timeout must exceed the heartbeat period, or every "
                        "healthy worker looks hung");
    if (opt_.backoff_base_s <= 0 || opt_.backoff_max_s < opt_.backoff_base_s)
        throw FarmError("farm: backoff base/max must be positive and ordered");
    if (opt_.fleet_bin.empty() || access(opt_.fleet_bin.c_str(), X_OK) != 0)
        throw FarmError("farm: worker binary not executable: " + opt_.fleet_bin);
    try {
        tl_ = scenario::load_lifetime_timeline(opt_.timeline_path, opt_.fleet.days);
    } catch (const scenario::TimelineError& e) {
        throw FarmError(e.what());
    }
    timeline_name_ = basename_of(opt_.timeline_path);
}

namespace {

enum class ShardState { Waiting, Running, Done, Dead };

struct ShardSlot {
    ShardState state = ShardState::Waiting;
    pid_t pid = -1;
    JournalProgress prog;
    std::uint64_t last_bytes = 0;
    double last_growth_t = 0;
    bool term_sent = false;
    double term_t = 0;
    bool kill_sent = false; ///< the supervisor SIGKILLed this worker
    double restart_at_t = 0;
    unsigned attempts = 0;
    std::size_t next_chaos = 0; ///< this shard's first event not yet seen delivered
    Rng backoff_rng{0};
    ShardOutcome out;
};

} // namespace

FarmReport Farm::run() {
    mkdirs(opt_.dir);
    const double t0 = now_s();
    FarmReport rep;
    rep.shards.resize(opt_.workers);

    auto log = [&](const std::string& line) {
        if (log_) *log_ << "farm: " << line << "\n" << std::flush;
    };
    auto jnl_path = [&](unsigned k) {
        return opt_.dir + "/shard_" + std::to_string(k) + ".jnl";
    };
    auto shard_path = [&](unsigned k, const char* ext) {
        return opt_.dir + "/shard_" + std::to_string(k) + ext;
    };

    const std::vector<ChaosEvent> chaos = chaos_schedule(opt_);
    std::vector<std::vector<ChaosEvent>> chaos_by_shard(opt_.workers);
    for (const ChaosEvent& ev : chaos) chaos_by_shard[ev.shard].push_back(ev);

    std::vector<ShardSlot> slots(opt_.workers);
    for (unsigned k = 0; k < opt_.workers; ++k) {
        slots[k].backoff_rng = Rng(fault::mix_seed(opt_.chaos_seed, 0xB0FFull + k));
        slots[k].out.devices = shard_device_count(opt_.fleet.devices, k, opt_.workers);
        slots[k].restart_at_t = t0; // first launch is immediate
        slots[k].last_growth_t = t0;
    }

    auto spawn = [&](unsigned k) {
        ShardSlot& s = slots[k];
        std::vector<std::string> args = {
            opt_.fleet_bin,
            "--timeline", opt_.timeline_path,
            "--devices",  std::to_string(opt_.fleet.devices),
            "--seed",     std::to_string(opt_.fleet.seed),
            "--cohorts",  std::to_string(opt_.fleet.cohorts),
            "--baseline", f64_arg(opt_.fleet.baseline_fraction),
            "--engine",   cluster::engine_name(opt_.fleet.engine),
            "--threads",  std::to_string(opt_.worker_threads),
            "--shard",    std::to_string(k) + "/" + std::to_string(opt_.workers),
            "--store",    shard_path(k, ".ulpf"),
            "--heartbeat", f64_arg(opt_.heartbeat_s),
            // Every attempt resumes: the first finds no journal and starts
            // fresh; a restart replays and skips every completed device.
            "--resume",   jnl_path(k),
        };
        if (opt_.fleet.days > 0) {
            args.push_back("--days");
            args.push_back(f64_arg(opt_.fleet.days));
        }
        if (!chaos_by_shard[k].empty()) {
            // The whole schedule: the worker skips the triggers its journal
            // has already passed.
            args.push_back("--chaos-at");
            args.push_back(chaos_at_arg(chaos_by_shard[k]));
        }
        std::vector<char*> argv;
        for (std::string& a : args) argv.push_back(a.data());
        argv.push_back(nullptr);
        const std::string log_path = shard_path(k, ".log");
        const pid_t pid = fork();
        if (pid < 0) throw FarmError(std::string("farm: fork failed: ") + std::strerror(errno));
        if (pid == 0) {
            const int fd =
                open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0666);
            if (fd >= 0) {
                dup2(fd, 1);
                dup2(fd, 2);
                if (fd > 2) close(fd);
            }
            execv(argv[0], argv.data());
            _exit(127); // exec failed: a distinct, restartable exit
        }
        s.pid = pid;
        s.state = ShardState::Running;
        s.term_sent = false;
        s.kill_sent = false;
        s.last_growth_t = now_s();
        ++s.attempts;
        if (s.attempts > 1) ++rep.restarts;
        log("shard " + std::to_string(k) + ": worker pid " + std::to_string(pid) +
            " (attempt " + std::to_string(s.attempts) + ")");
    };

    auto kill_all = [&]() {
        for (ShardSlot& s : slots) {
            if (s.state != ShardState::Running || s.pid < 0) continue;
            kill(s.pid, SIGKILL);
            int st = 0;
            waitpid(s.pid, &st, 0);
            s.pid = -1;
        }
    };

    try {
        for (;;) {
            bool all_settled = true;
            const double now = now_s();
            for (unsigned k = 0; k < opt_.workers; ++k) {
                ShardSlot& s = slots[k];
                if (s.state == ShardState::Done || s.state == ShardState::Dead) continue;
                all_settled = false;

                if (s.state == ShardState::Waiting) {
                    if (now >= s.restart_at_t) spawn(k);
                    continue;
                }

                // ---- reap, and see the chaos the worker delivered -------
                // A scheduled event is seen delivered when the worker stops
                // or dies by it with the journal at exactly its trigger.
                const auto chaos_landed = [&](bool stall) {
                    const auto& queue = chaos_by_shard[k];
                    if (s.next_chaos == queue.size()) return false;
                    const ChaosEvent& ev = queue[s.next_chaos];
                    if (ev.stall != stall || s.prog.record_frames != ev.at_records)
                        return false;
                    ++s.next_chaos;
                    log("shard " + std::to_string(k) + ": chaos " +
                        (stall ? "SIGSTOP" : "SIGKILL") + " at record " +
                        std::to_string(ev.at_records) + (stall ? " (timeout path)" : ""));
                    return true;
                };
                int status = 0;
                const pid_t r = waitpid(s.pid, &status, WNOHANG | WUNTRACED);
                if (r == s.pid && WIFSTOPPED(status)) {
                    // Left stopped: the liveness timeout escalates it.
                    scan_journal(jnl_path(k), s.prog);
                    if (WSTOPSIG(status) == SIGSTOP && chaos_landed(true)) ++s.out.chaos_stalls;
                    continue;
                }
                if (r == s.pid) {
                    s.pid = -1;
                    scan_journal(jnl_path(k), s.prog);
                    int code;
                    if (WIFEXITED(status)) {
                        code = WEXITSTATUS(status);
                    } else {
                        code = -WTERMSIG(status);
                    }
                    s.out.last_status = code;
                    const bool chaos_kill =
                        code == -SIGKILL && !s.kill_sent && chaos_landed(false);
                    if (chaos_kill) ++s.out.chaos_kills;
                    if (code == 0) {
                        s.state = ShardState::Done;
                        log("shard " + std::to_string(k) + ": complete after " +
                            std::to_string(s.attempts) + " attempt(s)");
                        continue;
                    }
                    if (code == 2) {
                        // Usage / journal-meta disagreement: deterministic,
                        // no restart can fix it.
                        s.state = ShardState::Dead;
                        log("shard " + std::to_string(k) +
                            ": worker rejected the spec (exit 2); shard is dead");
                        continue;
                    }
                    if (code == 3) {
                        ++s.out.preempted_exits;
                        log("shard " + std::to_string(k) +
                            ": worker preempted politely (exit 3)");
                    } else if (code < 0 && !chaos_kill) {
                        log("shard " + std::to_string(k) + ": worker killed by signal " +
                            std::to_string(-code));
                    } else {
                        log("shard " + std::to_string(k) + ": worker exit " +
                            std::to_string(code));
                    }
                    if (s.attempts > opt_.retries) {
                        s.state = ShardState::Dead;
                        log("shard " + std::to_string(k) + ": retry budget (" +
                            std::to_string(opt_.retries) + ") exhausted; shard is dead");
                        continue;
                    }
                    const double back = farm_backoff_s(opt_.backoff_base_s, opt_.backoff_max_s,
                                                       s.attempts, s.backoff_rng);
                    s.restart_at_t = now + back;
                    s.state = ShardState::Waiting;
                    {
                        std::ostringstream ss;
                        ss << "shard " << k << ": restarting in " << std::setprecision(3)
                           << back << " s (" << s.prog.gdis.size() << "/" << s.out.devices
                           << " devices journaled)";
                        log(ss.str());
                    }
                    continue;
                }

                // ---- liveness ------------------------------------------
                scan_journal(jnl_path(k), s.prog);
                if (s.prog.bytes > s.last_bytes) {
                    s.last_bytes = s.prog.bytes;
                    s.last_growth_t = now;
                }

                if (!s.term_sent && now - s.last_growth_t > opt_.timeout_s) {
                    kill(s.pid, SIGTERM);
                    s.term_sent = true;
                    s.term_t = now;
                    ++s.out.timeout_terms;
                    log("shard " + std::to_string(k) + ": no journal growth for " +
                        std::to_string(opt_.timeout_s) + " s; SIGTERM");
                } else if (s.term_sent && now - s.term_t > opt_.term_grace_s) {
                    // SIGTERM stays pending on a SIGSTOPped worker; SIGKILL
                    // does not care.
                    kill(s.pid, SIGKILL);
                    s.term_sent = false;
                    s.kill_sent = true;
                    ++s.out.timeout_kills;
                    log("shard " + std::to_string(k) + ": grace expired; SIGKILL");
                }
            }
            if (all_settled) break;
            std::this_thread::sleep_for(std::chrono::duration<double>(kPollS));
        }
    } catch (...) {
        kill_all();
        throw;
    }

    // ---- final accounting ----------------------------------------------
    for (unsigned k = 0; k < opt_.workers; ++k) {
        ShardSlot& s = slots[k];
        scan_journal(jnl_path(k), s.prog);
        s.out.attempts = s.attempts;
        s.out.journaled = s.prog.gdis.size();
        s.out.record_frames = s.prog.record_frames;
        s.out.duplicate_records = s.prog.duplicate_records;
        s.out.done = s.state == ShardState::Done;
        s.out.dead = s.state == ShardState::Dead;
        rep.shards[k] = s.out;
        rep.chaos_kills += s.out.chaos_kills;
        rep.chaos_stalls += s.out.chaos_stalls;
        rep.chaos_undelivered +=
            static_cast<unsigned>(chaos_by_shard[k].size() - s.next_chaos);
        rep.timeout_terms += s.out.timeout_terms;
        rep.timeout_kills += s.out.timeout_kills;
        rep.preempted_exits += s.out.preempted_exits;
        rep.devices_simulated += s.out.record_frames;
        rep.devices_journaled += s.out.journaled;
        rep.duplicate_records += s.out.duplicate_records;
        if (s.out.dead) rep.dead_shards.push_back(k);
    }

    if (rep.dead_shards.empty()) {
        std::vector<std::string> stores;
        for (unsigned k = 0; k < opt_.workers; ++k) stores.push_back(shard_path(k, ".ulpf"));
        const MergedFleet merged = merge_stores(opt_.fleet, tl_, timeline_name_, stores);
        rep.merged_json = merged.json;
        rep.complete = true;
        if (!opt_.json_path.empty()) write_file_atomic(opt_.json_path, merged.json);
        if (!opt_.store_path.empty())
            write_store(opt_.store_path, store_header(opt_.fleet), merged.records);
        log("merged " + std::to_string(merged.records.size()) + " devices from " +
            std::to_string(opt_.workers) + " shard stores");
    }
    rep.wall_s = now_s() - t0;
    return rep;
}

void print_farm_summary(std::ostream& os, const FarmOptions& opt, const FarmReport& rep) {
    os << "farm: " << opt.fleet.devices << " devices over " << opt.workers
       << " shard workers, seed " << opt.fleet.seed << ", "
       << (rep.complete ? "complete" : "PARTIAL FAILURE") << "\n";
    os << "supervision: " << rep.restarts << " restarts, " << rep.chaos_kills
       << " chaos kills, " << rep.chaos_stalls << " chaos stalls, " << rep.timeout_terms
       << " timeout SIGTERMs, " << rep.timeout_kills << " escalations, "
       << rep.preempted_exits << " polite preemptions\n";
    os << "work: " << rep.devices_simulated << " device simulations for "
       << rep.devices_journaled << " journaled devices (" << rep.duplicate_records
       << " re-simulated)\n";
    if (!rep.dead_shards.empty()) {
        os << "dead shards:";
        for (unsigned k : rep.dead_shards)
            os << " " << k << " (last status " << rep.shards[k].last_status << ")";
        os << "\n";
    }
    os << std::setprecision(3) << "wall: " << rep.wall_s << " s\n" << std::setprecision(6);
}

void write_farm_report(std::ostream& os, const FarmOptions& opt, const FarmReport& rep) {
    os << "{\n";
    os << "  \"farm\": {\n";
    os << "    \"workers\": " << opt.workers << ",\n";
    os << "    \"devices\": " << opt.fleet.devices << ",\n";
    os << "    \"seed\": " << opt.fleet.seed << ",\n";
    os << "    \"heartbeat_s\": " << opt.heartbeat_s << ",\n";
    os << "    \"timeout_s\": " << opt.timeout_s << ",\n";
    os << "    \"retries\": " << opt.retries << ",\n";
    os << "    \"chaos\": {\"kills\": " << opt.chaos_kills << ", \"stalls\": "
       << opt.chaos_stalls << ", \"seed\": " << opt.chaos_seed << "},\n";
    os << "    \"complete\": " << (rep.complete ? "true" : "false") << "\n";
    os << "  },\n";
    os << "  \"supervision\": {\n";
    os << "    \"restarts\": " << rep.restarts << ",\n";
    os << "    \"chaos_kills\": " << rep.chaos_kills << ",\n";
    os << "    \"chaos_stalls\": " << rep.chaos_stalls << ",\n";
    os << "    \"chaos_undelivered\": " << rep.chaos_undelivered << ",\n";
    os << "    \"timeout_terms\": " << rep.timeout_terms << ",\n";
    os << "    \"timeout_kills\": " << rep.timeout_kills << ",\n";
    os << "    \"preempted_exits\": " << rep.preempted_exits << ",\n";
    os << "    \"devices_simulated\": " << rep.devices_simulated << ",\n";
    os << "    \"devices_journaled\": " << rep.devices_journaled << ",\n";
    os << "    \"duplicate_records\": " << rep.duplicate_records << ",\n";
    os << "    \"dead_shards\": [";
    for (std::size_t i = 0; i < rep.dead_shards.size(); ++i)
        os << rep.dead_shards[i] << (i + 1 < rep.dead_shards.size() ? ", " : "");
    os << "]\n";
    os << "  },\n";
    os << "  \"shards\": [\n";
    for (std::size_t k = 0; k < rep.shards.size(); ++k) {
        const ShardOutcome& s = rep.shards[k];
        os << "    {\"shard\": " << k << ", \"devices\": " << s.devices << ", \"attempts\": "
           << s.attempts << ", \"journaled\": " << s.journaled << ", \"record_frames\": "
           << s.record_frames << ", \"duplicates\": " << s.duplicate_records
           << ", \"chaos_kills\": " << s.chaos_kills << ", \"chaos_stalls\": "
           << s.chaos_stalls << ", \"timeout_terms\": " << s.timeout_terms
           << ", \"timeout_kills\": " << s.timeout_kills << ", \"preempted\": "
           << s.preempted_exits << ", \"done\": " << (s.done ? "true" : "false")
           << ", \"dead\": " << (s.dead ? "true" : "false") << ", \"last_status\": "
           << s.last_status << "}" << (k + 1 < rep.shards.size() ? "," : "") << "\n";
    }
    os << "  ]\n";
    os << "}\n";
}

} // namespace ulpmc::fleet
