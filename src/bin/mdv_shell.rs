//! `mdv-shell` — an interactive shell (and script runner) for an MDV
//! deployment, the kind of operator tool a downstream user would drive the
//! system with.
//!
//! ```text
//! cargo run --bin mdv-shell                 # interactive REPL
//! cargo run --bin mdv-shell script.mdv      # run a script
//! ```
//!
//! Commands (`help` lists them at runtime):
//!
//! ```text
//! schema <file>                  load the schema (textual schema language)
//! mdp <name>                     add a Metadata Provider to the backbone
//! lmr <name> <mdp>               add a Local Metadata Repository
//! register <mdp> <uri> <file>    register an RDF/XML document
//! register <mdp> <uri> <<EOF     … inline document until a line 'EOF'
//! update <mdp> <uri> <file|<<M>  re-register a modified document
//! delete <mdp> <uri>             delete a document
//! subscribe <lmr> <rule …>       register a subscription rule
//! unsubscribe <lmr> <id>         retract a subscription rule
//! query <lmr> <query …>          evaluate a query on the LMR cache
//! cache <lmr>                    list cached resource URIs
//! classes <mdp>                  list schema classes
//! browse <mdp> <class>           list resources of a class at the MDP
//! pin <lmr> <uri>                browse-and-select: cache one resource
//! graph <mdp>                    dependency graph in Graphviz DOT
//! table <mdp> <name>             render a filter table (e.g. AtomicRules)
//! stats                          network statistics
//! quit
//! ```

use std::fmt::Write as _;
use std::io::{self, BufRead, Write};

use mdv::filter::{rule_tables, to_dot};
use mdv::prelude::*;
use mdv::rdf::parse_schema;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut shell = Shell::default();
    match args.first() {
        Some(path) => {
            let script = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot read script '{path}': {e}");
                    std::process::exit(1);
                }
            };
            let mut lines = script
                .lines()
                .map(str::to_owned)
                .collect::<Vec<_>>()
                .into_iter();
            while let Some(line) = lines.next() {
                match shell.exec(&line, &mut lines) {
                    Ok(Some(out)) => print!("{out}"),
                    Ok(None) => return,
                    Err(e) => {
                        eprintln!("error: {e}");
                        std::process::exit(1);
                    }
                }
            }
        }
        None => {
            let stdin = io::stdin();
            let mut collected: Vec<String> = Vec::new();
            for line in stdin.lock().lines() {
                let Ok(line) = line else { break };
                collected.push(line);
            }
            let mut lines = collected.into_iter();
            print!("mdv-shell — type 'help' for commands\n> ");
            let _ = io::stdout().flush();
            while let Some(line) = lines.next() {
                match shell.exec(&line, &mut lines) {
                    Ok(Some(out)) => print!("{out}> "),
                    Ok(None) => return,
                    Err(e) => print!("error: {e}\n> "),
                }
                let _ = io::stdout().flush();
            }
        }
    }
}

/// The shell state: a system once a schema is loaded.
#[derive(Default)]
struct Shell {
    sys: Option<MdvSystem>,
}

type ShellResult = Result<Option<String>, Box<dyn std::error::Error>>;

impl Shell {
    /// Executes one command line; `lines` supplies the remaining input for
    /// heredoc-style inline documents. Returns `Ok(None)` on `quit`.
    fn exec(&mut self, line: &str, lines: &mut dyn Iterator<Item = String>) -> ShellResult {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(Some(String::new()));
        }
        let mut parts = line.split_whitespace();
        let command = parts.next().expect("non-empty line");
        let rest: Vec<&str> = parts.collect();
        match command {
            "help" => Ok(Some(HELP.to_owned())),
            "quit" | "exit" => Ok(None),
            "schema" => {
                let [path] = rest.as_slice() else {
                    return usage("schema <file>");
                };
                let text = std::fs::read_to_string(path)?;
                let schema = parse_schema(&text)?;
                let classes = schema.class_names().len();
                self.sys = Some(MdvSystem::new(schema));
                Ok(Some(format!("schema loaded: {classes} classes\n")))
            }
            "mdp" => {
                let [name] = rest.as_slice() else {
                    return usage("mdp <name>");
                };
                self.sys()?.add_mdp(name)?;
                Ok(Some(format!("mdp '{name}' added\n")))
            }
            "lmr" => {
                let [name, mdp] = rest.as_slice() else {
                    return usage("lmr <name> <mdp>");
                };
                self.sys()?.add_lmr(name, mdp)?;
                Ok(Some(format!("lmr '{name}' connected to '{mdp}'\n")))
            }
            "register" | "update" => {
                let [mdp, uri, source] = rest.as_slice() else {
                    return usage("register|update <mdp> <uri> <file | <<MARKER>");
                };
                let xml = read_source(source, lines)?;
                let doc = parse_document(uri, &xml)?;
                if command == "register" {
                    self.sys()?.register_document(mdp, &doc)?;
                } else {
                    self.sys()?.update_document(mdp, &doc)?;
                }
                Ok(Some(format!(
                    "{command}ed '{uri}' ({} resources)\n",
                    doc.resources().len()
                )))
            }
            "delete" => {
                let [mdp, uri] = rest.as_slice() else {
                    return usage("delete <mdp> <uri>");
                };
                self.sys()?.delete_document(mdp, uri)?;
                Ok(Some(format!("deleted '{uri}'\n")))
            }
            "subscribe" => {
                let Some((lmr, rule)) = rest.split_first() else {
                    return usage("subscribe <lmr> <rule text>");
                };
                let rule = rule.join(" ");
                let id = self.sys()?.subscribe(lmr, &rule)?;
                Ok(Some(format!("subscription {id} active at '{lmr}'\n")))
            }
            "unsubscribe" => {
                let [lmr, id] = rest.as_slice() else {
                    return usage("unsubscribe <lmr> <id>");
                };
                self.sys()?.unsubscribe(lmr, id.parse()?)?;
                Ok(Some(format!("subscription {id} retracted\n")))
            }
            "query" => {
                let Some((lmr, query)) = rest.split_first() else {
                    return usage("query <lmr> <query text>");
                };
                let query = query.join(" ");
                let hits = self.sys()?.query(lmr, &query)?;
                let mut out = format!("{} result(s)\n", hits.len());
                for r in hits {
                    let _ = write!(out, "{r}");
                }
                Ok(Some(out))
            }
            "cache" => {
                let [lmr] = rest.as_slice() else {
                    return usage("cache <lmr>");
                };
                let uris = self.sys()?.lmr(lmr)?.cached_uris();
                let mut out = format!("{} cached resource(s)\n", uris.len());
                for u in uris {
                    let _ = writeln!(out, "  {u}");
                }
                Ok(Some(out))
            }
            "classes" => {
                let [mdp] = rest.as_slice() else {
                    return usage("classes <mdp>");
                };
                let classes = self.sys()?.browse_classes(mdp)?;
                Ok(Some(format!("{}\n", classes.join("\n"))))
            }
            "browse" => {
                let [mdp, class] = rest.as_slice() else {
                    return usage("browse <mdp> <class>");
                };
                let resources = self.sys()?.browse_resources(mdp, class)?;
                let mut out = format!("{} resource(s) of class {class}\n", resources.len());
                for r in resources {
                    let _ = writeln!(out, "  {}", r.uri());
                }
                Ok(Some(out))
            }
            "pin" => {
                let [lmr, uri] = rest.as_slice() else {
                    return usage("pin <lmr> <uri>");
                };
                let id = self.sys()?.subscribe_to_resource(lmr, uri)?;
                Ok(Some(format!(
                    "pinned '{uri}' at '{lmr}' (subscription {id})\n"
                )))
            }
            "graph" => {
                let [mdp] = rest.as_slice() else {
                    return usage("graph <mdp>");
                };
                let sys = self.sys()?;
                Ok(Some(to_dot(sys.mdp(mdp)?.engine().graph())))
            }
            "table" => {
                let [mdp, name] = rest.as_slice() else {
                    return usage("table <mdp> <name>");
                };
                let sys = self.sys()?;
                Ok(Some(rule_tables::render_table(
                    sys.mdp(mdp)?.engine().db(),
                    name,
                )?))
            }
            "explain" => {
                let Some((mdp, rule)) = rest.split_first() else {
                    return usage("explain <mdp> <rule text>");
                };
                let rule = rule.join(" ");
                let sys = self.sys()?;
                Ok(Some(sys.mdp(mdp)?.engine().explain_rule(&rule)?))
            }
            "save" => {
                let [mdp, path] = rest.as_slice() else {
                    return usage("save <mdp> <file>");
                };
                let sys = self.sys()?;
                let state = sys.mdp(mdp)?.export_state();
                std::fs::write(path, &state)?;
                Ok(Some(format!(
                    "saved state of '{mdp}' ({} bytes)\n",
                    state.len()
                )))
            }
            "restore" => {
                let [mdp, path] = rest.as_slice() else {
                    return usage("restore <mdp> <file>");
                };
                let state = std::fs::read_to_string(path)?;
                let sys = self.sys.as_mut().ok_or("no schema loaded")?;
                // the MDP must exist and be fresh (added via 'mdp <name>')
                let (subs, docs) = sys.restore_mdp_state(mdp, &state)?;
                Ok(Some(format!(
                    "restored '{mdp}': {subs} subscriptions, {docs} documents\n"
                )))
            }
            "stats" => {
                let stats = self.sys()?.network_stats();
                Ok(Some(format!(
                    "messages: {}, bytes: {}, simulated latency: {} ms\n",
                    stats.messages, stats.bytes, stats.clock_ms
                )))
            }
            other => Err(format!("unknown command '{other}' (try 'help')").into()),
        }
    }

    fn sys(&mut self) -> Result<&mut MdvSystem, Box<dyn std::error::Error>> {
        self.sys
            .as_mut()
            .ok_or_else(|| "no schema loaded (use 'schema <file>')".into())
    }
}

/// Reads a document source: a file path, or `<<MARKER` heredoc from the
/// remaining input lines.
fn read_source(
    source: &str,
    lines: &mut dyn Iterator<Item = String>,
) -> Result<String, Box<dyn std::error::Error>> {
    if let Some(marker) = source.strip_prefix("<<") {
        let mut xml = String::new();
        for line in lines {
            if line.trim() == marker {
                return Ok(xml);
            }
            xml.push_str(&line);
            xml.push('\n');
        }
        Err(format!("unterminated heredoc (missing '{marker}')").into())
    } else {
        Ok(std::fs::read_to_string(source)?)
    }
}

fn usage(text: &str) -> ShellResult {
    Err(format!("usage: {text}").into())
}

const HELP: &str = "\
commands:
  schema <file>                  load the schema (textual schema language)
  mdp <name>                     add a Metadata Provider to the backbone
  lmr <name> <mdp>               add a Local Metadata Repository
  register <mdp> <uri> <file>    register an RDF/XML document (or <<MARKER heredoc)
  update <mdp> <uri> <file>      re-register a modified document
  delete <mdp> <uri>             delete a document
  subscribe <lmr> <rule ...>     register a subscription rule
  unsubscribe <lmr> <id>         retract a subscription rule
  query <lmr> <query ...>        evaluate a query on the LMR cache
  cache <lmr>                    list cached resource URIs
  classes <mdp>                  list schema classes
  browse <mdp> <class>           list resources of a class
  pin <lmr> <uri>                cache one specific resource (OID rule)
  graph <mdp>                    dependency graph in Graphviz DOT
  table <mdp> <name>             render a filter table (AtomicRules, FilterRulesGT, ...)
  explain <mdp> <rule ...>       show how a rule would decompose
  save <mdp> <file>              export an MDP's logical state
  restore <mdp> <file>           replay exported state into a fresh MDP
  stats                          network statistics
  quit
";

#[cfg(test)]
mod tests {
    use super::*;

    fn run_script(script: &str) -> Vec<String> {
        let mut shell = Shell::default();
        let mut outputs = Vec::new();
        let mut lines = script
            .lines()
            .map(str::to_owned)
            .collect::<Vec<_>>()
            .into_iter();
        while let Some(line) = lines.next() {
            match shell.exec(&line, &mut lines) {
                Ok(Some(out)) => outputs.push(out),
                Ok(None) => break,
                Err(e) => panic!("script failed at '{line}': {e}"),
            }
        }
        outputs
    }

    fn with_schema_file(f: impl FnOnce(&str)) {
        // tests run on parallel threads of one process: a directory per call,
        // or one test's cleanup removes the schema another is about to read
        static CALL: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let call = CALL.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("mdv-shell-test-{}-{call}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("schema.mdv");
        std::fs::write(
            &path,
            "class ServerInformation {\n  memory: int\n  cpu: int\n}\n\
             class CycleProvider {\n  serverHost: str\n  serverPort: int\n  \
             serverInformation: strong ServerInformation\n}\n",
        )
        .unwrap();
        f(path.to_str().unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn full_session_via_script() {
        with_schema_file(|schema_path| {
            let script = format!(
                "# a full session\n\
                 schema {schema_path}\n\
                 mdp m1\n\
                 lmr l1 m1\n\
                 subscribe l1 search CycleProvider c register c where c.serverInformation.memory > 64\n\
                 register m1 doc.rdf <<END\n\
                 <rdf:RDF>\n\
                 <CycleProvider rdf:ID=\"host\">\n\
                 <serverHost>pirates.uni-passau.de</serverHost>\n\
                 <serverPort>5874</serverPort>\n\
                 <serverInformation rdf:resource=\"#info\"/>\n\
                 </CycleProvider>\n\
                 <ServerInformation rdf:ID=\"info\"><memory>92</memory><cpu>600</cpu></ServerInformation>\n\
                 </rdf:RDF>\n\
                 END\n\
                 cache l1\n\
                 query l1 search CycleProvider c register c\n\
                 table m1 AtomicRules\n\
                 graph m1\n\
                 stats\n\
                 quit\n"
            );
            let outputs = run_script(&script);
            let all = outputs.join("");
            assert!(all.contains("schema loaded: 2 classes"));
            assert!(all.contains("registered 'doc.rdf' (2 resources)"));
            assert!(all.contains("2 cached resource(s)"));
            assert!(all.contains("doc.rdf#host"));
            assert!(all.contains("1 result(s)"));
            assert!(all.contains("AtomicRules"));
            assert!(all.contains("digraph dependency_graph"));
            assert!(all.contains("messages:"));
        });
    }

    #[test]
    fn update_and_delete_via_script() {
        with_schema_file(|schema_path| {
            let script = format!(
                "schema {schema_path}\n\
                 mdp m1\n\
                 lmr l1 m1\n\
                 subscribe l1 search ServerInformation s register s where s.memory > 64\n\
                 register m1 d.rdf <<X\n\
                 <rdf:RDF><ServerInformation rdf:ID=\"i\"><memory>92</memory><cpu>1</cpu></ServerInformation></rdf:RDF>\n\
                 X\n\
                 update m1 d.rdf <<X\n\
                 <rdf:RDF><ServerInformation rdf:ID=\"i\"><memory>32</memory><cpu>1</cpu></ServerInformation></rdf:RDF>\n\
                 X\n\
                 cache l1\n\
                 delete m1 d.rdf\n"
            );
            let outputs = run_script(&script);
            let all = outputs.join("");
            assert!(
                all.contains("0 cached resource(s)"),
                "update evicted the resource: {all}"
            );
            assert!(all.contains("deleted 'd.rdf'"));
        });
    }

    #[test]
    fn explain_save_restore_via_script() {
        with_schema_file(|schema_path| {
            let dir = std::path::Path::new(schema_path)
                .parent()
                .unwrap()
                .to_path_buf();
            let state_path = dir.join("m1.state");
            let script = format!(
                "schema {schema_path}\n\
                 mdp m1\n\
                 lmr l1 m1\n\
                 subscribe l1 search CycleProvider c register c where c.serverInformation.memory > 64\n\
                 register m1 d.rdf <<X\n\
                 <rdf:RDF><CycleProvider rdf:ID='h'><serverHost>a</serverHost>\
                 <serverPort>1</serverPort>\
                 <serverInformation rdf:resource='#i'/></CycleProvider>\
                 <ServerInformation rdf:ID='i'><memory>92</memory><cpu>1</cpu></ServerInformation></rdf:RDF>\n\
                 X\n\
                 explain m1 search CycleProvider c register c where c.serverInformation.memory > 64\n\
                 save m1 {state}\n\
                 mdp m2\n\
                 restore m2 {state}\n",
                state = state_path.display()
            );
            let outputs = run_script(&script);
            let all = outputs.join("");
            assert!(
                all.contains("atomic rules"),
                "explain output present: {all}"
            );
            assert!(all.contains("shared with an existing subscription"));
            assert!(all.contains("saved state of 'm1'"));
            assert!(all.contains("restored 'm2': 1 subscriptions, 1 documents"));
        });
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let mut shell = Shell::default();
        let mut empty = Vec::<String>::new().into_iter();
        // no schema yet
        assert!(shell.exec("mdp m1", &mut empty).is_err());
        assert!(shell.exec("bogus", &mut empty).is_err());
        assert!(shell.exec("subscribe", &mut empty).is_err());
        // comments and blanks are fine
        assert_eq!(shell.exec("# comment", &mut empty).unwrap().unwrap(), "");
        assert_eq!(shell.exec("", &mut empty).unwrap().unwrap(), "");
        // help works without a schema
        assert!(shell
            .exec("help", &mut empty)
            .unwrap()
            .unwrap()
            .contains("commands:"));
    }

    #[test]
    fn browse_pin_unsubscribe_via_script() {
        with_schema_file(|schema_path| {
            let script = format!(
                "schema {schema_path}\n\
                 mdp m1\n\
                 lmr l1 m1\n\
                 register m1 d.rdf <<X\n\
                 <rdf:RDF><CycleProvider rdf:ID='h'><serverHost>a</serverHost>\
                 <serverPort>1</serverPort>\
                 <serverInformation rdf:resource='#i'/></CycleProvider>\
                 <ServerInformation rdf:ID='i'><memory>92</memory><cpu>1</cpu></ServerInformation></rdf:RDF>\n\
                 X\n\
                 classes m1\n\
                 browse m1 CycleProvider\n\
                 pin l1 d.rdf#h\n\
                 cache l1\n\
                 unsubscribe l1 0\n\
                 cache l1\n"
            );
            let outputs = run_script(&script);
            let all = outputs.join("");
            assert!(all.contains("CycleProvider\nServerInformation"));
            assert!(all.contains("1 resource(s) of class CycleProvider"));
            assert!(all.contains("pinned 'd.rdf#h'"));
            assert!(
                all.contains("2 cached resource(s)"),
                "pin pulled host + companion: {all}"
            );
            assert!(all.contains("subscription 0 retracted"));
            assert!(
                all.contains("0 cached resource(s)"),
                "unsubscribe emptied the cache: {all}"
            );
        });
    }

    #[test]
    fn heredoc_must_terminate() {
        let mut shell = Shell::default();
        with_schema_file(|schema_path| {
            let mut lines = vec!["<rdf:RDF/>".to_owned()].into_iter();
            shell
                .exec(&format!("schema {schema_path}"), &mut lines)
                .unwrap();
            shell.exec("mdp m1", &mut lines).unwrap();
            let err = shell
                .exec("register m1 d.rdf <<END", &mut lines)
                .unwrap_err();
            assert!(err.to_string().contains("unterminated"));
        });
    }
}
