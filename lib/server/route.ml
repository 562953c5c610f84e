module W = Bx_repo.Webui

type t =
  | Page of W.page
  | Missing of W.form
  | Edit of { id : Bx_repo.Identifier.t; form : W.form }
  | Metrics
  | Healthz
  | Readyz
  | Failpoints of { put : bool }
  | Chaos of { put : bool }
  | Stream
  | Snapshot
  | Digest
  | Promote
  | Lens_op of { lens : string; op : string }
  | Doc_get of { lens : string; docid : string }
  | Doc_write of Docstore.op
  | No_lens_path
  | Not_allowed of { label : string; allow : string list }
  | Bad_path

let form_label = function
  | W.Html -> "entry"
  | Wiki -> "entry.wiki"
  | Json -> "entry.json"

let label = function
  | Page W.Index -> "index"
  | Page Search -> "search"
  | Page Glossary -> "glossary"
  | Page Manuscript -> "manuscript"
  | Page (Extra path) -> path
  | Page (Entry { form; _ }) | Edit { form; _ } | Missing form -> form_label form
  | Metrics -> "metrics"
  | Healthz | Readyz -> "health"
  | Failpoints _ | Chaos _ -> "debug"
  | Stream | Snapshot | Digest -> "replication"
  | Promote -> "admin"
  | Lens_op _ | Doc_get _ | Doc_write _ | No_lens_path -> "slens"
  | Not_allowed { label; _ } -> label
  | Bad_path -> "bad_path"

let deadline_exempt = function
  | Metrics | Healthz | Readyz | Failpoints _ | Chaos _ | Stream | Snapshot | Digest | Promote -> true
  | _ -> false

(* [route] if [meth] is one it serves, else a 405 under its label. *)
let only allow meth route =
  if List.mem meth allow then route else Not_allowed { label = label route; allow }

(* /slens/<lens>/..., split after the prefix. *)
let lens_route meth = function
  | [ lens; "doc"; docid ] -> (
      match meth with
      | "POST" -> Doc_write (Docstore.Put { lens; docid })
      | _ -> only [ "GET"; "POST" ] meth (Doc_get { lens; docid }))
  | [ lens; ("patch" | "patch_source" as op) ] ->
      only [ "POST" ] meth
        (Doc_write (Docstore.Patch { lens; reverse = op = "patch_source" }))
  | [ lens; op ] -> only [ "POST" ] meth (Lens_op { lens; op })
  | _ -> No_lens_path

(* Every other path is a page, read by the wiki's page grammar. *)
let page_route ~pages meth path =
  match (W.parse_path ~pages path, meth) with
  | Ok (Entry _ as page), "GET" -> Page page
  | Ok (Entry { id; form }), "POST" -> Edit { id; form }
  | Error form, ("GET" | "POST") -> Missing form
  | (Ok (Entry { form; _ }) | Error form), _ ->
      Not_allowed { label = form_label form; allow = [ "GET"; "POST" ] }
  | Ok page, _ -> only [ "GET" ] meth (Page page)

let lens_prefix = "/slens/"

let parse ~pages meth path =
  let get route = only [ "GET" ] meth route in
  let admin route = only [ "GET"; "PUT" ] meth route in
  match path with
  | "" -> Bad_path
  | _ when path.[0] <> '/' -> Bad_path
  | "/metrics" -> get Metrics
  | "/healthz" -> get Healthz
  | "/readyz" -> get Readyz
  | "/debug/failpoints" -> admin (Failpoints { put = meth = "PUT" })
  | "/debug/chaos" -> admin (Chaos { put = meth = "PUT" })
  | "/replication/stream" -> get Stream
  | "/replication/snapshot" -> get Snapshot
  | "/replication/digest" -> get Digest
  | "/admin/promote" -> only [ "POST" ] meth Promote
  | _
    when String.starts_with ~prefix:lens_prefix path
         && String.length path > String.length lens_prefix -> (
      match String.split_on_char '/' path with
      | "" :: "slens" :: rest -> lens_route meth rest
      | _ -> No_lens_path)
  | _ -> page_route ~pages meth path

type item = Entry_item of Bx_repo.Identifier.t | Doc_item of string * string | No_item

let touch registry route ~body =
  match route with
  | Edit { id; _ } -> (Bx_repo.Registry.shard_of_id registry id, Entry_item id)
  | Doc_write (Docstore.Put { lens; docid }) -> (0, Doc_item (lens, docid))
  | Doc_write (Docstore.Patch { lens; _ }) -> (
      (* A patch frame names its document in the first RS field. *)
      match String.index_opt body '\x1e' with
      | Some i -> (0, Doc_item (lens, String.sub body 0 i))
      | None -> (0, No_item))
  | _ -> (0, No_item)
