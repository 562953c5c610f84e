(* bxrepo — command-line front end to the bx examples repository.

   The registry is seeded with the catalogue on every run (the repository
   is a library; persistence is the export/import pair). *)

open Cmdliner
open Bx_repo

let registry = lazy (Bx_catalogue.Catalogue.seed ())

let id_of_string s =
  match Identifier.of_string s with
  | Ok id -> Ok id
  | Error e -> Error (`Msg e)

let id_conv =
  Arg.conv
    ( id_of_string,
      fun ppf id -> Identifier.pp ppf id )

let version_conv =
  Arg.conv
    ( (fun s ->
        match Version.of_string s with
        | Ok v -> Ok v
        | Error e -> Error (`Msg e)),
      Version.pp )

let id_arg =
  Arg.(
    required
    & pos 0 (some id_conv) None
    & info [] ~docv:"ID" ~doc:"Entry identifier, e.g. COMPOSERS.")

let version_opt =
  Arg.(
    value
    & opt (some version_conv) None
    & info [ "at"; "v" ] ~docv:"VERSION" ~doc:"Entry version, e.g. 0.1.")

let or_die = function
  | Ok x -> x
  | Error e ->
      Fmt.epr "bxrepo: %s@." (Registry.error_message e);
      exit 1

(* --- list ----------------------------------------------------------- *)

let list_cmd =
  let run () =
    let reg = Lazy.force registry in
    List.iter
      (fun id ->
        let t = or_die (Registry.latest reg id) in
        Fmt.pr "%-22s v%-5s %-20s %s@." (Identifier.to_string id)
          (Version.to_string t.Template.version)
          (String.concat ","
             (List.map Template.class_name t.Template.classes))
          (let o = t.Template.overview in
           if String.length o > 60 then String.sub o 0 57 ^ "..." else o))
      (Registry.ids reg)
  in
  Cmd.v (Cmd.info "list" ~doc:"List every entry in the repository.")
    Term.(const run $ const ())

(* --- show ----------------------------------------------------------- *)

let show_cmd =
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit structured JSON instead.")
  in
  let run id version json =
    let reg = Lazy.force registry in
    let t =
      match version with
      | None -> or_die (Registry.latest reg id)
      | Some v -> or_die (Registry.find_version reg id v)
    in
    if json then print_endline (Json_codec.to_string ~indent:2 t)
    else Fmt.pr "%a@." Template.pp t
  in
  Cmd.v (Cmd.info "show" ~doc:"Print an entry's template.")
    Term.(const run $ id_arg $ version_opt $ json)

(* --- render --------------------------------------------------------- *)

let render_cmd =
  let markdown =
    Arg.(value & flag & info [ "markdown" ] ~doc:"Render Markdown instead of wiki markup.")
  in
  let run id version markdown =
    let reg = Lazy.force registry in
    let t =
      match version with
      | None -> or_die (Registry.latest reg id)
      | Some v -> or_die (Registry.find_version reg id v)
    in
    if markdown then print_string (Markup.to_markdown (Sync.render_entry t))
    else print_string (Sync.wiki_text t)
  in
  Cmd.v
    (Cmd.info "render"
       ~doc:"Print an entry's wiki page (the Sync lens's get direction).")
    Term.(const run $ id_arg $ version_opt $ markdown)

let diff_cmd =
  let from_arg =
    Arg.(
      required
      & opt (some version_conv) None
      & info [ "from" ] ~docv:"VERSION" ~doc:"Older version.")
  in
  let to_arg =
    Arg.(
      value
      & opt (some version_conv) None
      & info [ "to" ] ~docv:"VERSION" ~doc:"Newer version (default: latest).")
  in
  let run id from_v to_v =
    let reg = Lazy.force registry in
    let old_t = or_die (Registry.find_version reg id from_v) in
    let new_t =
      match to_v with
      | None -> or_die (Registry.latest reg id)
      | Some v -> or_die (Registry.find_version reg id v)
    in
    Fmt.pr "%a@." Diff.pp (Diff.templates old_t new_t)
  in
  Cmd.v
    (Cmd.info "diff" ~doc:"Show field-level changes between two versions.")
    Term.(const run $ id_arg $ from_arg $ to_arg)

(* --- check ---------------------------------------------------------- *)

let count_opt =
  Arg.(
    value & opt int 150
    & info [ "count" ] ~docv:"N" ~doc:"Random samples per law.")

let check_cmd =
  let run id count =
    match Bx_check.Examples_check.report_for ~count (Identifier.to_string id) with
    | Error e ->
        Fmt.epr "bxrepo: %s@." e;
        exit 1
    | Ok rows ->
        Fmt.pr "%s: claimed properties vs machine verification@."
          (Identifier.to_string id);
        Fmt.pr "%a@." Bx_check.Verify.pp_report rows;
        if not (Bx_check.Verify.all_upheld rows) then exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Verify an entry's claimed properties against its executable bx \
          (the machine half of the review step).")
    Term.(const run $ id_arg $ count_opt)

let check_all_cmd =
  let run count =
    let reports = Bx_check.Examples_check.all_reports ~count () in
    let failed = ref false in
    List.iter
      (fun (title, rows) ->
        Fmt.pr "== %s ==@.%a@.@." title Bx_check.Verify.pp_report rows;
        if not (Bx_check.Verify.all_upheld rows) then failed := true)
      reports;
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "check-all" ~doc:"Verify every entry's claimed properties.")
    Term.(const run $ count_opt)

(* --- cite ----------------------------------------------------------- *)

let cite_cmd =
  let bibtex =
    Arg.(value & flag & info [ "bibtex" ] ~doc:"Emit a BibTeX record.")
  in
  let run id version bibtex =
    let reg = Lazy.force registry in
    let text =
      if bibtex then or_die (Registry.cite_bibtex reg ?version id)
      else or_die (Registry.cite reg ?version id)
    in
    print_endline text
  in
  Cmd.v
    (Cmd.info "cite" ~doc:"Print the recommended citation for an entry.")
    Term.(const run $ id_arg $ version_opt $ bibtex)

(* --- search ---------------------------------------------------------- *)

let search_cmd =
  let cls_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "class" ] ~docv:"CLASS"
          ~doc:"Filter by class: PRECISE, INDUSTRIAL, SKETCH or BENCHMARK.")
  in
  let prop_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "property" ] ~docv:"PROP"
          ~doc:"Filter by property claim, e.g. 'correct' or 'not undoable'.")
  in
  let text_arg =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"TEXT")
  in
  let run cls prop text =
    let reg = Lazy.force registry in
    let cls =
      Option.map
        (fun s ->
          match Template.class_of_name s with
          | Some c -> c
          | None ->
              Fmt.epr "bxrepo: unknown class %S@." s;
              exit 1)
        cls
    in
    let property =
      Option.map
        (fun s ->
          match Bx.Properties.claim_of_name s with
          | Some p -> p
          | None ->
              Fmt.epr "bxrepo: unknown property %S@." s;
              exit 1)
        prop
    in
    let q = Registry.query ?cls ?property ?text () in
    List.iter
      (fun id -> print_endline (Identifier.to_string id))
      (Registry.search reg q)
  in
  Cmd.v
    (Cmd.info "search" ~doc:"Search entries by class, property or text.")
    Term.(const run $ cls_opt $ prop_opt $ text_arg)

(* --- glossary --------------------------------------------------------- *)

let glossary_cmd =
  let term_arg = Arg.(value & pos 0 (some string) None & info [] ~docv:"TERM") in
  let run term =
    match term with
    | Some term -> (
        match Glossary.lookup term with
        | Some def -> Fmt.pr "@[<v 2>%s@,@[%a@]@]@." term Fmt.text def
        | None ->
            Fmt.epr "bxrepo: no glossary entry for %S@." term;
            exit 1)
    | None ->
        List.iter
          (fun entry -> Fmt.pr "%a@.@." Glossary.pp_entry entry)
          (Glossary.terms ())
  in
  Cmd.v
    (Cmd.info "glossary"
       ~doc:"Look up a property or term in the repository glossary.")
    Term.(const run $ term_arg)

(* --- export ----------------------------------------------------------- *)

let dir_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR")

let export_cmd =
  let run dir =
    match Store.save ~dir (Lazy.force registry) with
    | Ok n -> Fmt.pr "exported %d files to %s@." n dir
    | Error e ->
        Fmt.epr "bxrepo: %s@." e;
        exit 1
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:
         "Write every entry (all versions) as wiki pages — the local, \
          markup-independent copy of section 5.4.")
    Term.(const run $ dir_arg)

let import_cmd =
  let run dir =
    match Store.load ~dir () with
    | Error e ->
        Fmt.epr "bxrepo: %s@." e;
        exit 1
    | Ok reg ->
        Fmt.pr "loaded %d entries:@." (Registry.size reg);
        List.iter
          (fun id ->
            match Registry.versions reg id with
            | Ok versions ->
                Fmt.pr "  %-22s versions %s@." (Identifier.to_string id)
                  (String.concat ", " (List.map Version.to_string versions))
            | Error e -> Fmt.pr "  %s@." (Registry.error_message e))
          (Registry.ids reg)
  in
  Cmd.v
    (Cmd.info "import"
       ~doc:"Load a directory of exported wiki pages and summarise it.")
    Term.(const run $ dir_arg)

let lint_cmd =
  let run id =
    let reg = Lazy.force registry in
    let t = or_die (Registry.latest reg id) in
    (match Template.validate t with
    | Ok () -> Fmt.pr "validates.@."
    | Error msgs ->
        List.iter (fun m -> Fmt.pr "error: %s@." m) msgs);
    match Template.lint t with
    | [] -> Fmt.pr "no style advice.@."
    | advice -> List.iter (fun m -> Fmt.pr "advice: %s@." m) advice
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Validate an entry against the template rules and style advice.")
    Term.(const run $ id_arg)

(* --- demo-undoability --------------------------------------------------- *)

let demo_cmd =
  let run () =
    let open Bx_catalogue.Composers in
    let trace = undoability_counterexample () in
    let pp_m = m_space.Bx.Model.pp and pp_n = n_space.Bx.Model.pp in
    Fmt.pr "The COMPOSERS undoability counterexample (paper, section 4):@.@.";
    Fmt.pr "  m0 = %a@." pp_m trace.initial_m;
    Fmt.pr "  n0 = %a@.@." pp_n trace.initial_n;
    Fmt.pr "delete Britten from n:@.  n1 = %a@." pp_n trace.n_after_delete;
    Fmt.pr "enforce consistency on m (bwd):@.  m1 = %a@.@." pp_m
      trace.m_after_first_bwd;
    Fmt.pr "restore Britten to n:@.  n2 = %a@." pp_n trace.n_after_restore;
    Fmt.pr "enforce consistency on m again (bwd):@.  m2 = %a@.@." pp_m
      trace.m_after_second_bwd;
    Fmt.pr "dates lost: %b — m cannot return to its original state.@."
      trace.dates_lost
  in
  Cmd.v
    (Cmd.info "demo-undoability"
       ~doc:"Replay the paper's undoability counterexample.")
    Term.(const run $ const ())

let manuscript_cmd =
  let bibtex =
    Arg.(value & flag & info [ "bibtex" ] ~doc:"Emit the bibliography instead.")
  in
  let run bibtex =
    let reg = Lazy.force registry in
    if bibtex then print_endline (Manuscript.bibliography reg)
    else print_string (Manuscript.generate reg)
  in
  Cmd.v
    (Cmd.info "manuscript"
       ~doc:
         "Collect the latest version of every entry into the archival \
          manuscript of section 5.2 (or, with --bibtex, its bibliography).")
    Term.(const run $ bibtex)

let index_cmd =
  let related =
    Arg.(
      value
      & opt (some id_conv) None
      & info [ "related" ] ~docv:"ID"
          ~doc:"List entries related to ID (shared sources or authors).")
  in
  let run related =
    let reg = Lazy.force registry in
    match related with
    | Some id ->
        List.iter
          (fun other -> print_endline (Identifier.to_string other))
          (Catalogue_index.related reg id)
    | None -> print_string (Markup.render (Catalogue_index.render reg))
  in
  Cmd.v
    (Cmd.info "index"
       ~doc:"Print the cross-reference index (by class, property, author, \
             cited source), or related entries with --related.")
    Term.(const run $ related)

let scenario_cmd =
  let size_opt =
    Arg.(value & opt int 8 & info [ "size" ] ~docv:"N" ~doc:"Scenario size.")
  in
  let policy_opt =
    Arg.(
      value
      & opt (enum [ ("prefer-parent", `Parent); ("prefer-child", `Child) ])
          `Parent
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:"Backward policy: prefer-parent or prefer-child.")
  in
  let run size policy =
    let policy =
      match policy with
      | `Parent -> Bx_catalogue.Families2persons.Prefer_parent
      | `Child -> Bx_catalogue.Families2persons.Prefer_child
    in
    List.iter
      (fun scenario ->
        let out = Bx_catalogue.F2p_scenarios.run ~policy scenario in
        Fmt.pr "%-28s %s@." scenario.Bx_catalogue.F2p_scenarios.scenario_name
          scenario.Bx_catalogue.F2p_scenarios.description;
        Fmt.pr
          "  families=%d persons=%d restorations=%d consistent-throughout=%b@."
          (List.length out.Bx_catalogue.F2p_scenarios.final_families)
          (List.length out.Bx_catalogue.F2p_scenarios.final_persons)
          out.Bx_catalogue.F2p_scenarios.restorations
          out.Bx_catalogue.F2p_scenarios.consistent_after_every_step)
      (Bx_catalogue.F2p_scenarios.all size)
  in
  Cmd.v
    (Cmd.info "scenario"
       ~doc:
         "Run the FAMILIES2PERSONS BenchmarX-style scenarios (the \
          BENCHMARK entry's workloads).")
    Term.(const run $ size_opt $ policy_opt)

let validate_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"A template in JSON form (see 'show --json').")
  in
  let run file =
    match Json_codec.of_string (Fsio.read_file file) with
    | Error e ->
        Fmt.epr "bxrepo: %s@." e;
        exit 1
    | Ok t -> (
        (match Template.validate t with
        | Ok () -> Fmt.pr "validates.@."
        | Error msgs ->
            List.iter (fun m -> Fmt.pr "error: %s@." m) msgs;
            exit 1);
        match Template.lint t with
        | [] -> Fmt.pr "no style advice.@."
        | advice -> List.iter (fun m -> Fmt.pr "advice: %s@." m) advice)
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Validate a JSON template file against the section 3 rules — \
          the contributor's pre-submission check.")
    Term.(const run $ file_arg)

let main =
  let doc = "An executable repository of bidirectional transformation examples" in
  Cmd.group
    (Cmd.info "bxrepo" ~version:"1.0.0" ~doc)
    [
      list_cmd; show_cmd; render_cmd; diff_cmd; check_cmd; check_all_cmd; cite_cmd;
      search_cmd; glossary_cmd; export_cmd; import_cmd; lint_cmd; validate_cmd;
      manuscript_cmd; index_cmd; scenario_cmd; demo_cmd;
    ]

let () = exit (Cmd.eval main)
