/**
 * @file
 * sfetchctl: command-line client for sfetchd.
 *
 *   sfetchctl [--connect ADDR] [--retries N] COMMAND [ARG] [options]
 *
 * The commands, their arguments and the submit and shutdown options
 * come from the protocol's declaration (serve/protocol.cc); `sfetchctl
 * --help` lists them. ADDR is `unix:PATH`, `tcp:HOST:PORT`, or a bare
 * Unix socket path (default unix:/tmp/sfetchd.sock).
 *
 * submit prints every streamed line (ack, row frames, summary) to
 * stdout as it arrives, so `sfetchctl submit ... | jq` follows a
 * sweep live. Exit status: 0 on success, 1 when the daemon rejects
 * or the job fails, 2 on usage errors.
 *
 * --token makes a submit idempotent against a journalled daemon
 * (--state-dir): resubmitting the same token after a crash either
 * attaches to the recovered job and streams its rows, or — if the
 * rows were already delivered — returns a one-line duplicate reply.
 * --retries N retries a refused connection with capped exponential
 * backoff, covering the daemon's restart window.
 */

#include <algorithm>
#include <climits>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "serve/client.hh"
#include "serve/protocol.hh"
#include "sim/cli.hh"

using namespace sfetch;

int
main(int argc, char **argv)
{
    std::string socket_path = "/tmp/sfetchd.sock";
    std::vector<std::string> args; // COMMAND [ARG]
    std::map<std::string, std::string> options; // field -> text
    ServeClient::ConnectRetry retry;
    const ProtocolSchema &schema = ProtocolSchema::instance();

    CliParser cli("sfetchctl",
                  "talk to a running sfetchd (submit streams rows "
                  "live; see serve/protocol.hh for the protocol)");
    cli.addOption("--connect", "ADDR",
                  "daemon address: unix:PATH, tcp:HOST:PORT, or a "
                  "bare socket path (default /tmp/sfetchd.sock)",
                  [&](const std::string &v) { socket_path = v; });
    cli.addOption("--retries", "N",
                  "retry a refused connect N times with backoff "
                  "(default 0)",
                  [&](const std::string &v) {
                      retry.retries = static_cast<int>(std::min<
                          std::uint64_t>(CliParser::parseU64(v), INT_MAX));
                  });
    // Each verb's argument goes into the usage line; each other field
    // with a metavar becomes an option (a Bool's flag clears it).
    std::string commands;
    for (const VerbSpec &verb : schema.verbs) {
        commands += (commands.empty() ? "" : " | ") + std::string(verb.name);
        for (const FieldSpec &f : verb.fields) {
            const std::string name = f.name;
            if (verb.positional && name == verb.positional) {
                commands += std::string(" ") + f.metavar;
                continue;
            }
            if (!f.metavar)
                continue;
            std::string help = std::string(f.help) + " (" + verb.name;
            if (f.kind == FieldSpec::Kind::Bool) {
                cli.addFlag(f.metavar, help + ")",
                            [&options, name] { options[name] = "false"; });
                continue;
            }
            if (f.dflt && *f.dflt)
                help += std::string("; default ") + f.dflt;
            std::string meta = f.metavar;
            for (const std::string &c : f.choices)
                meta += (meta.empty() ? "" : "|") + c;
            cli.addOption("--" + name, meta, help + ")",
                          [&options, name](const std::string &v) {
                              options[name] = v;
                          });
        }
    }
    cli.onPositional("COMMAND [ARG]", commands,
                     [&](const std::string &v) { args.push_back(v); });
    cli.parseOrExit(argc, argv);

    std::string request;
    try {
        request = schema.commandRequest(args, options);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "sfetchctl: %s (see --help)\n", e.what());
        return 2;
    }

    try {
        ServeClient client(socket_path, retry);

        if (args[0] == "submit") {
            bool ok_summary = false;
            const bool done = client.submitStream(
                request,
                [&](const JsonValue &parsed, const std::string &raw) {
                    std::printf("%s\n", raw.c_str());
                    std::fflush(stdout);
                    if (const JsonValue *state =
                            parsed.find("state"))
                        ok_summary = state->kind ==
                                         JsonValue::Kind::String &&
                                     state->string == "done";
                    return true;
                });
            return done && ok_summary ? 0 : 1;
        }

        const std::string reply = client.requestRaw(request);
        std::printf("%s\n", reply.c_str());
        const JsonValue parsed = JsonReader(reply).parse();
        const JsonValue *ok = parsed.find("ok");
        return ok && ok->kind == JsonValue::Kind::Bool && ok->boolean
                   ? 0
                   : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "sfetchctl: %s\n", e.what());
        return 1;
    }
}
