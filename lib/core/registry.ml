type entry = {
  id : Identifier.t;
  ord : int; (* insertion order; export and the index page are ord-stable *)
  mutable history : (Version.t * Template.t) list; (* newest first *)
  mutable pending : string list; (* endorsing reviewer account names *)
}

(* A posting list per index key: id string -> entry.  Keeping the entry as
   the value lets intersection walk postings without a second lookup. *)
type index = (string, (string, entry) Hashtbl.t) Hashtbl.t

type shard = {
  table : (string, entry) Hashtbl.t;
  by_author : index;
  by_tag : index;
  by_class : index;
  by_property : index;
  by_state : index;
}

type t = {
  shards : shard array;
  by_ord : (int, entry) Hashtbl.t;
      (* ord -> entry, across shards; ords are dense (entries are never
         deleted), so the index page slices a page in O(page size) *)
  mutable next_ord : int;
}

type error =
  | Not_found of string
  | Permission_denied of string
  | Invalid of string list
  | Conflict of string

let error_message = function
  | Not_found id -> Printf.sprintf "no entry %s" id
  | Permission_denied what -> Printf.sprintf "permission denied: %s" what
  | Invalid msgs -> "invalid template: " ^ String.concat "; " msgs
  | Conflict what -> Printf.sprintf "conflict: %s" what

let make_shard () =
  {
    table = Hashtbl.create 64;
    by_author = Hashtbl.create 16;
    by_tag = Hashtbl.create 16;
    by_class = Hashtbl.create 8;
    by_property = Hashtbl.create 16;
    by_state = Hashtbl.create 4;
  }

let create ?(shards = 1) () =
  if shards < 1 then invalid_arg "Registry.create: shards must be >= 1";
  {
    shards = Array.init shards (fun _ -> make_shard ());
    by_ord = Hashtbl.create 64;
    next_ord = 0;
  }

let shard_count t = Array.length t.shards

(* FNV-1a over the canonical identifier, masked to 32 bits.  The hash must
   be stable across runs and builds: shard assignment decides which journal
   segment an entry's edits land in, so it is part of the on-disk layout. *)
let fnv32 s =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0xffffffff)
    s;
  !h

let shard_of_id t id =
  if Array.length t.shards = 1 then 0
  else fnv32 (Identifier.to_string id) mod Array.length t.shards

let shard_of t id = t.shards.(shard_of_id t id)

let all_entries t =
  Array.fold_left
    (fun acc shard -> Hashtbl.fold (fun _ e acc -> e :: acc) shard.table acc)
    [] t.shards

let ids t =
  List.sort Identifier.compare (List.map (fun e -> e.id) (all_entries t))

let size t =
  Array.fold_left (fun acc shard -> acc + Hashtbl.length shard.table) 0 t.shards

let find_entry t id = Hashtbl.find_opt (shard_of t id).table (Identifier.to_string id)

let ids_page t ~offset ~limit =
  let stop = min t.next_ord (max 0 offset + max 0 limit) in
  let rec go ord acc =
    if ord < max 0 offset then acc
    else
      match Hashtbl.find_opt t.by_ord ord with
      | Some e -> go (ord - 1) (e.id :: acc)
      | None -> go (ord - 1) acc
  in
  go (stop - 1) []

let latest_of entry =
  match entry.history with
  | (_, template) :: _ -> template
  | [] -> assert false (* entries always hold at least one version *)

let author_names (template : Template.t) =
  List.map (fun c -> c.Contributor.person_name) template.Template.authors

(* {2 Curation state} *)

type curation_state = Provisional | Endorsed | Published

let state_name = function
  | Provisional -> "provisional"
  | Endorsed -> "endorsed"
  | Published -> "published"

let state_of_name = function
  | "provisional" -> Some Provisional
  | "endorsed" -> Some Endorsed
  | "published" -> Some Published
  | _ -> None

let state_of_entry entry =
  if not (Template.is_provisional (latest_of entry)) then Published
  else if entry.pending <> [] then Endorsed
  else Provisional

(* {2 Incremental secondary indexes}

   Each index maps a key to the posting list of entries whose *latest*
   version carries that key.  [postings_of] computes an entry's current
   (index, key) pairs; mutations run under [reindexing], which diffs the
   pairs before and after the state change so the indexes stay transactional
   with the mutation: either the mutation fails and nothing moved, or it
   succeeds and every index reflects the new latest version. *)

let norm = String.lowercase_ascii

let postings_of shard entry =
  let template = latest_of entry in
  let on idx keys = List.map (fun k -> (idx, k)) keys in
  on shard.by_author (List.map norm (author_names template))
  @ on shard.by_tag
      (List.map
         (fun (v : Template.variant) -> norm v.variant_name)
         template.Template.variants)
  @ on shard.by_class (List.map Template.class_name template.Template.classes)
  @ on shard.by_property
      (List.map Bx.Properties.claim_name template.Template.properties)
  @ [ (shard.by_state, state_name (state_of_entry entry)) ]

let idx_add idx key entry =
  let posting =
    match Hashtbl.find_opt idx key with
    | Some p -> p
    | None ->
        let p = Hashtbl.create 8 in
        Hashtbl.replace idx key p;
        p
  in
  Hashtbl.replace posting (Identifier.to_string entry.id) entry

let idx_remove idx key entry =
  match Hashtbl.find_opt idx key with
  | None -> ()
  | Some posting ->
      Hashtbl.remove posting (Identifier.to_string entry.id);
      if Hashtbl.length posting = 0 then Hashtbl.remove idx key

let index_entry shard entry =
  List.iter (fun (idx, key) -> idx_add idx key entry) (postings_of shard entry)

(* Run a mutation on [entry]; on success, move the entry's postings from
   the pre-mutation keys to the post-mutation keys.  Mutations validate
   before touching the entry, so an [Error] leaves both entry and indexes
   untouched. *)
let reindexing shard entry f =
  let before = postings_of shard entry in
  match f entry with
  | Ok _ as r ->
      List.iter (fun (idx, key) -> idx_remove idx key entry) before;
      index_entry shard entry;
      r
  | Error _ as r -> r

let insert_entry t entry =
  let shard = shard_of t entry.id in
  Hashtbl.replace shard.table (Identifier.to_string entry.id) entry;
  Hashtbl.replace t.by_ord entry.ord entry;
  index_entry shard entry

let submit t ~as_:_ template =
  match Template.validate template with
  | Error msgs -> Error (Invalid msgs)
  | Ok () ->
      if not (Template.is_provisional template) then
        Error
          (Invalid [ "a new submission must carry a provisional 0.x version" ])
      else (
        match Identifier.of_title template.Template.title with
        | Error e -> Error (Invalid [ e ])
        | Ok id ->
            if find_entry t id <> None then
              Error
                (Conflict
                   (Printf.sprintf "an entry %s already exists"
                      (Identifier.to_string id)))
            else begin
              let entry =
                {
                  id;
                  ord = t.next_ord;
                  history = [ (template.Template.version, template) ];
                  pending = [];
                }
              in
              t.next_ord <- t.next_ord + 1;
              insert_entry t entry;
              Ok id
            end)

let with_entry t id f =
  match find_entry t id with
  | None -> Error (Not_found (Identifier.to_string id))
  | Some entry -> reindexing (shard_of t id) entry f

let comment t ~as_ id ~text =
  with_entry t id (fun entry ->
      if not (Curation.can_comment as_) then
        Error (Permission_denied "commenting requires an account")
      else if String.contains text '\n' then
        Error (Invalid [ "a comment must be one line" ])
      else begin
        match entry.history with
        | (v, template) :: older ->
            let template =
              {
                template with
                Template.comments =
                  template.Template.comments
                  @ [ Template.comment ~author:as_.Curation.account_name text ];
              }
            in
            entry.history <- (v, template) :: older;
            Ok ()
        | [] -> assert false
      end)

let endorse t ~as_ id =
  with_entry t id (fun entry ->
      if not (Curation.can_review as_) then
        Error (Permission_denied "endorsing requires reviewer status")
      else
        let template = latest_of entry in
        if List.mem as_.Curation.account_name (author_names template) then
          Error (Permission_denied "authors cannot endorse their own entry")
        else if List.mem as_.Curation.account_name entry.pending then
          Error (Conflict "already endorsed by this reviewer")
        else begin
          entry.pending <- entry.pending @ [ as_.Curation.account_name ];
          Ok ()
        end)

let endorsements t id =
  match find_entry t id with
  | None -> Error (Not_found (Identifier.to_string id))
  | Some entry -> Ok entry.pending

let approve t ~as_ id =
  with_entry t id (fun entry ->
      if not (Curation.can_approve as_) then
        Error (Permission_denied "approval requires curator status")
      else if entry.pending = [] then
        Error (Conflict "no endorsements: an entry needs at least one reviewer")
      else begin
        match entry.history with
        | (v, template) :: _ ->
            let version = Version.promote v in
            let template =
              {
                template with
                Template.version;
                Template.reviewers =
                  List.map Contributor.make entry.pending;
              }
            in
            (match Template.validate template with
            | Error msgs -> Error (Invalid msgs)
            | Ok () ->
                entry.history <- (version, template) :: entry.history;
                entry.pending <- [];
                Ok version)
        | [] -> assert false
      end)

let revise t ~as_ id template =
  with_entry t id (fun entry ->
      let current = latest_of entry in
      if not (Curation.can_edit ~author_names:(author_names current) as_) then
        Error (Permission_denied "editing requires curator status or authorship")
      else (
        match Identifier.of_title template.Template.title with
        | Error e -> Error (Invalid [ e ])
        | Ok new_id when not (Identifier.equal new_id id) ->
            Error
              (Conflict
                 "revisions may not change the title: identifiers are stable")
        | Ok _ ->
            let version =
              Version.bump_minor current.Template.version
            in
            let template = { template with Template.version } in
            (match Template.validate template with
            | Error msgs -> Error (Invalid msgs)
            | Ok () ->
                entry.history <- (version, template) :: entry.history;
                entry.pending <- [];
                Ok version)))

let latest t id =
  match find_entry t id with
  | None -> Error (Not_found (Identifier.to_string id))
  | Some entry -> Ok (latest_of entry)

let find_version t id version =
  match find_entry t id with
  | None -> Error (Not_found (Identifier.to_string id))
  | Some entry -> (
      match
        List.find_opt (fun (v, _) -> Version.equal v version) entry.history
      with
      | Some (_, template) -> Ok template
      | None ->
          Error
            (Not_found
               (Printf.sprintf "%s version %s" (Identifier.to_string id)
                  (Version.to_string version))))

let versions t id =
  match find_entry t id with
  | None -> Error (Not_found (Identifier.to_string id))
  | Some entry -> Ok (List.rev_map fst entry.history)

type query = {
  q_class : Template.example_class option;
  q_property : Bx.Properties.claim option;
  q_text : string option;
  q_author : string option;
  q_tag : string option;
  q_state : curation_state option;
}

let query ?cls ?property ?text ?author ?tag ?state () =
  {
    q_class = cls;
    q_property = property;
    q_text = text;
    q_author = author;
    q_tag = tag;
    q_state = state;
  }

let contains_ci haystack needle =
  let h = String.lowercase_ascii haystack in
  let n = String.lowercase_ascii needle in
  let hl = String.length h and nl = String.length n in
  if nl = 0 then true
  else
    let rec scan i = i + nl <= hl && (String.sub h i nl = n || scan (i + 1)) in
    scan 0

let full_text (template : Template.t) =
  String.concat "\n"
    ([
       template.Template.title;
       template.Template.overview;
       template.Template.consistency;
       template.Template.restoration.Template.rest_forward;
       template.Template.restoration.Template.rest_backward;
       template.Template.discussion;
     ]
    @ List.map
        (fun (m : Template.model_desc) ->
          m.model_name ^ " " ^ m.model_description)
        template.Template.models
    @ List.map
        (fun (v : Template.variant) ->
          v.variant_name ^ " " ^ v.variant_description)
        template.Template.variants
    @ List.map Contributor.to_string template.Template.authors)

let matches q entry =
  let template = latest_of entry in
  (match q.q_class with
  | None -> true
  | Some c -> List.mem c template.Template.classes)
  && (match q.q_property with
     | None -> true
     | Some p -> List.mem p template.Template.properties)
  && (match q.q_author with
     | None -> true
     | Some a -> List.mem (norm a) (List.map norm (author_names template)))
  && (match q.q_tag with
     | None -> true
     | Some tag ->
         List.exists
           (fun (v : Template.variant) -> norm v.variant_name = norm tag)
           template.Template.variants)
  && (match q.q_state with
     | None -> true
     | Some s -> state_of_entry entry = s)
  &&
  match q.q_text with
  | None -> true
  | Some text -> contains_ci (full_text template) text

(* Indexed search: each indexed criterion names a posting list per shard;
   intersect starting from the smallest list, then post-filter free text.
   With no indexed criterion the shard is scanned (free text cannot be
   indexed by key).  The criterion keys (normalised author, class name,
   ...) are computed once per query, not once per shard: the shard loop
   runs [shard_count] times, and at catalogue scale its per-shard
   constant — one hashtable probe per criterion on a miss, no
   allocation — is what keeps search flat. *)
type criterion_keys = {
  k_class : string option;
  k_property : string option;
  k_author : string option;
  k_tag : string option;
  k_state : string option;
}

let criterion_keys q =
  {
    k_class = Option.map Template.class_name q.q_class;
    k_property = Option.map Bx.Properties.claim_name q.q_property;
    k_author = Option.map norm q.q_author;
    k_tag = Option.map norm q.q_tag;
    k_state = Option.map state_name q.q_state;
  }

exception Empty_posting

(* The posting lists for every given criterion, smallest first; raises
   [Empty_posting] when a criterion has no posting in this shard (the
   shard then contributes nothing). *)
let shard_postings k shard =
  let add idx key acc =
    match key with
    | None -> acc
    | Some key -> (
        match Hashtbl.find_opt idx key with
        | None -> raise_notrace Empty_posting
        | Some p -> p :: acc)
  in
  add shard.by_class k.k_class []
  |> add shard.by_property k.k_property
  |> add shard.by_author k.k_author
  |> add shard.by_tag k.k_tag
  |> add shard.by_state k.k_state
  |> List.sort (fun a b -> compare (Hashtbl.length a) (Hashtbl.length b))

let search_shard q k ~indexed shard acc =
  if not indexed then
    (* Unindexed query (free text or none): scan the shard. *)
    Hashtbl.fold
      (fun _ e acc -> if matches q e then e.id :: acc else acc)
      shard.table acc
  else
    match shard_postings k shard with
    | exception Empty_posting -> acc
    | [] -> assert false (* indexed implies at least one criterion *)
    | smallest :: rest ->
        let text_ok e =
          match q.q_text with
          | None -> true
          | Some text -> contains_ci (full_text (latest_of e)) text
        in
        Hashtbl.fold
          (fun key e acc ->
            if List.for_all (fun p -> Hashtbl.mem p key) rest && text_ok e
            then e.id :: acc
            else acc)
          smallest acc

let search t q =
  let k = criterion_keys q in
  let indexed =
    k.k_class <> None || k.k_property <> None || k.k_author <> None
    || k.k_tag <> None || k.k_state <> None
  in
  Array.fold_left
    (fun acc shard -> search_shard q k ~indexed shard acc)
    [] t.shards
  |> List.sort Identifier.compare

let resolve t id version =
  match version with
  | None -> latest t id
  | Some v -> find_version t id v

let cite t ?version id =
  match resolve t id version with
  | Error e -> Error e
  | Ok template -> Ok (Citation.entry ~id template)

let cite_bibtex t ?version id =
  match resolve t id version with
  | Error e -> Error e
  | Ok template -> Ok (Citation.entry_bibtex ~id template)

let export_entry entry =
  let path = Identifier.wiki_path entry.id in
  let versioned =
    List.rev_map
      (fun (v, template) ->
        (path ^ "/" ^ Version.to_string v, Sync.wiki_text template))
      entry.history
  in
  versioned @ [ (path, Sync.wiki_text (latest_of entry)) ]

let by_ord entries = List.sort (fun a b -> compare a.ord b.ord) entries

let export t = List.concat_map export_entry (by_ord (all_entries t))

let export_shard t i =
  if i < 0 || i >= Array.length t.shards then
    invalid_arg "Registry.export_shard: shard out of range";
  let entries =
    Hashtbl.fold (fun _ e acc -> e :: acc) t.shards.(i).table []
  in
  List.concat_map export_entry (by_ord entries)

let shard_ids t i =
  if i < 0 || i >= Array.length t.shards then
    invalid_arg "Registry.shard_ids: shard out of range";
  Hashtbl.fold (fun _ e acc -> e.id :: acc) t.shards.(i).table []
  |> List.sort Identifier.compare

(* Parse a page dump into (id, version history) groups, preserving the
   order in which identifiers first appear. *)
let group_pages pages =
  let versioned =
    List.filter (fun (path, _) -> String.contains path '/') pages
  in
  let parse_page (path, text) =
    match String.index_opt path '/' with
    | None -> Error (Printf.sprintf "unversioned page %s" path)
    | Some i -> (
        let version_s =
          String.sub path (i + 1) (String.length path - i - 1)
        in
        match Version.of_string version_s with
        | Error e -> Error e
        | Ok version -> (
            match Sync.of_wiki_text text with
            | Error e -> Error (Printf.sprintf "%s: %s" path e)
            | Ok template -> Ok (version, template)))
  in
  let by_id : (string, Identifier.t * (Version.t * Template.t) list) Hashtbl.t =
    Hashtbl.create 16
  in
  let order = ref [] in
  let rec build = function
    | [] -> Ok ()
    | page :: rest -> (
        match parse_page page with
        | Error e -> Error e
        | Ok (version, template) -> (
            match Identifier.of_title template.Template.title with
            | Error e -> Error e
            | Ok id ->
                let key = Identifier.to_string id in
                (match Hashtbl.find_opt by_id key with
                | None ->
                    order := key :: !order;
                    Hashtbl.replace by_id key (id, [ (version, template) ])
                | Some (id, history) ->
                    Hashtbl.replace by_id key
                      (id, (version, template) :: history));
                build rest))
  in
  match build versioned with
  | Error e -> Error e
  | Ok () ->
      Ok
        (List.rev_map
           (fun key ->
             let id, history = Hashtbl.find by_id key in
             ( id,
               List.sort (fun (v1, _) (v2, _) -> Version.compare v2 v1) history
             ))
           !order)

let import ?(shards = 1) pages =
  match group_pages pages with
  | Error e -> Error e
  | Ok grouped ->
      let t = create ~shards () in
      List.iter
        (fun (id, history) ->
          let entry = { id; ord = t.next_ord; history; pending = [] } in
          t.next_ord <- t.next_ord + 1;
          insert_entry t entry)
        grouped;
      Ok t

let replace_shard t i pages =
  if i < 0 || i >= Array.length t.shards then
    invalid_arg "Registry.replace_shard: shard out of range";
  match group_pages pages with
  | Error e -> Error e
  | Ok grouped ->
      let misplaced =
        List.filter (fun (id, _) -> shard_of_id t id <> i) grouped
      in
      if misplaced <> [] then
        Error
          (Printf.sprintf "replace_shard: %s does not hash to shard %d"
             (Identifier.to_string (fst (List.hd misplaced)))
             i)
      else begin
        let shard = t.shards.(i) in
        let incoming = Hashtbl.create 64 in
        List.iter
          (fun (id, history) ->
            Hashtbl.replace incoming (Identifier.to_string id) history)
          grouped;
        (* Entries the upstream no longer has: drop them, postings, ord
           and all.  ids_page tolerates the resulting ord holes. *)
        let stale =
          Hashtbl.fold
            (fun key e acc ->
              if Hashtbl.mem incoming key then acc else (key, e) :: acc)
            shard.table []
        in
        List.iter
          (fun (key, e) ->
            List.iter
              (fun (idx, k) -> idx_remove idx k e)
              (postings_of shard e);
            Hashtbl.remove shard.table key;
            Hashtbl.remove t.by_ord e.ord)
          stale;
        (* Survivors keep their ord (the index page stays stable);
           genuinely new entries append. *)
        List.iter
          (fun (id, history) ->
            match Hashtbl.find_opt shard.table (Identifier.to_string id) with
            | Some entry ->
                ignore
                  (reindexing shard entry (fun entry ->
                       entry.history <- history;
                       entry.pending <- [];
                       Ok ()))
            | None ->
                let entry = { id; ord = t.next_ord; history; pending = [] } in
                t.next_ord <- t.next_ord + 1;
                insert_entry t entry)
          grouped;
        Ok ()
      end

let overlay t pages =
  match group_pages pages with
  | Error e -> Error e
  | Ok grouped ->
      List.iter
        (fun (id, history) ->
          match find_entry t id with
          | Some entry ->
              ignore
                (reindexing (shard_of t id) entry (fun entry ->
                     entry.history <- history;
                     entry.pending <- [];
                     Ok ()))
          | None ->
              let entry = { id; ord = t.next_ord; history; pending = [] } in
              t.next_ord <- t.next_ord + 1;
              insert_entry t entry)
        grouped;
      Ok ()
