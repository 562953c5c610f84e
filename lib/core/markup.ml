type inline =
  | Text of string
  | Bold of string
  | Italic of string
  | Code of string
  | Link of { target : string; label : string }

type block =
  | Heading of int * string
  | Para of inline list
  | Bullets of string list
  | Code_block of string list

type doc = block list

(* --- writers: every renderer fills one [Buffer] per document ------ *)

(* Escaped text is blitted in runs between the characters that need an
   entity. *)
let add_escaped buf s =
  let n = String.length s in
  let rec go start i =
    if i = n then Buffer.add_substring buf s start (i - start)
    else
      match String.unsafe_get s i with
      | ('&' | '<' | '>' | '"') as c ->
          Buffer.add_substring buf s start (i - start);
          Buffer.add_string buf
            (match c with '&' -> "&amp;" | '<' -> "&lt;" | '>' -> "&gt;" | _ -> "&quot;");
          go (i + 1) (i + 1)
      | _ -> go start (i + 1)
  in
  go 0 0

(* [add s] between the literals [l] and [r]. *)
let wrap add buf l s r =
  Buffer.add_string buf l;
  add buf s;
  Buffer.add_string buf r

(* [f] over [xs], with [sep] between consecutive elements. *)
let add_sep buf sep f xs =
  List.iteri (fun i x -> if i > 0 then Buffer.add_string buf sep; f x) xs

let add_inline buf = function
  | Text s -> Buffer.add_string buf s
  | Bold s -> wrap Buffer.add_string buf "**" s "**"
  | Italic s -> wrap Buffer.add_string buf "//" s "//"
  | Code s -> wrap Buffer.add_string buf "{{" s "}}"
  | Link { target; label } ->
      wrap Buffer.add_string buf "[[[" target "|";
      wrap Buffer.add_string buf "" label "]]]"

let render_inlines inlines =
  let buf = Buffer.create 64 in
  List.iter (add_inline buf) inlines;
  Buffer.contents buf

(* A blank line separates the block from those already in [buf], and a
   line break ends it. *)
let add_block buf block =
  if Buffer.length buf > 0 then Buffer.add_char buf '\n';
  (match block with
  | Heading (level, text) ->
      for _ = 1 to max 1 level do Buffer.add_char buf '+' done;
      Buffer.add_char buf ' ';
      Buffer.add_string buf text
  | Para inlines -> List.iter (add_inline buf) inlines
  | Bullets items -> add_sep buf "\n" (fun i -> wrap Buffer.add_string buf "* " i "") items
  | Code_block lines ->
      Buffer.add_string buf "[[code]]";
      List.iter (fun l -> wrap Buffer.add_string buf "\n" l "") lines;
      Buffer.add_string buf "\n[[/code]]");
  Buffer.add_char buf '\n'

let render doc =
  let buf = Buffer.create 1024 in
  List.iter (add_block buf) doc;
  Buffer.contents buf

(* --- inline parsing ----------------------------------------------- *)

(* [k] (2 or 3) copies of [c] start at [i] of [s]. *)
let run s c k i =
  i + k <= String.length s
  && String.unsafe_get s i = c
  && String.unsafe_get s (i + 1) = c
  && (k = 2 || String.unsafe_get s (i + 2) = c)

let rec scan_run s c k j =
  if j + k > String.length s then -1 else if run s c k j then j else scan_run s c k (j + 1)

(* The first closer of [kind] (a [k]-run of [c]) at or after [from], or
   -1.  [dead.(kind)] is a start from which that search has failed
   before; no later start can succeed, so it is not repeated. *)
let find_closer s dead kind c k from =
  if from >= dead.(kind) then -1
  else
    let j = scan_run s c k from in
    if j < 0 then dead.(kind) <- from;
    j

(* The text run [start, i) of [s], if any, onto [acc]; a run spanning
   the whole line is the line itself. *)
let cut s start i acc =
  if i <= start then acc
  else if start = 0 && i = String.length s then Text s :: acc
  else Text (String.sub s start (i - start)) :: acc

let rec bar s k close = if k >= close || s.[k] = '|' then k else bar s (k + 1) close

(* Scan for the markers in place; on finding an opener, look for its
   closer.  Unclosed markers fall through as literal text, and the text
   between two elements is cut once. *)
let rec inlines s dead acc start i =
  if i >= String.length s then List.rev (cut s start i acc)
  else
    let c = String.unsafe_get s i in
    if c = '[' && run s '[' 3 i then
      let close = find_closer s dead 0 ']' 3 (i + 3) in
      if close < 0 then inlines s dead acc start (i + 1)
      else
        let k = bar s (i + 3) close in
        let target = String.sub s (i + 3) (k - i - 3) in
        let label = if k = close then target else String.sub s (k + 1) (close - k - 1) in
        let acc = Link { target; label } :: cut s start i acc in
        inlines s dead acc (close + 3) (close + 3)
    else if (c = '*' || c = '/' || c = '{') && run s c 2 i then
      let kind, closer = match c with '*' -> (1, '*') | '/' -> (2, '/') | _ -> (3, '}') in
      let close = find_closer s dead kind closer 2 (i + 2) in
      if close > i + 2 then
        let body = String.sub s (i + 2) (close - i - 2) in
        let el = match c with '*' -> Bold body | '/' -> Italic body | _ -> Code body in
        inlines s dead (el :: cut s start i acc) (close + 2) (close + 2)
      else inlines s dead acc start (i + 1)
    else inlines s dead acc start (i + 1)

let parse_inlines line = inlines line (Array.make 4 max_int) [] 0 0

let plain_text inlines =
  String.concat ""
    (List.map
       (function
         | Text s | Bold s | Italic s | Code s -> s
         | Link { label; _ } -> label)
       inlines)

(* --- block parsing ------------------------------------------------- *)

(* The level of a heading line ([+] signs, then a space), or 0. *)
let heading_level line =
  let n = String.length line in
  let rec plusses i = if i < n && line.[i] = '+' then plusses (i + 1) else i in
  let level = plusses 0 in
  if level > 0 && level < n && line.[level] = ' ' then level else 0

let is_bullet line =
  String.length line >= 2 && line.[0] = '*' && line.[1] = ' '

let bullet_text line = String.sub line 2 (String.length line - 2)

let parse text =
  let lines = String.split_on_char '\n' text in
  let rec blocks acc = function
    | [] -> Ok (List.rev acc)
    | "" :: rest -> blocks acc rest
    | "[[code]]" :: rest ->
        let rec collect body = function
          | "[[/code]]" :: rest -> Ok (List.rev body, rest)
          | line :: rest -> collect (line :: body) rest
          | [] -> Error "unterminated [[code]] block"
        in
        (match collect [] rest with
        | Error e -> Error e
        | Ok (body, rest) -> blocks (Code_block body :: acc) rest)
    | line :: rest when heading_level line > 0 ->
        let level = heading_level line in
        let htext = String.sub line (level + 1) (String.length line - level - 1) in
        blocks (Heading (level, htext) :: acc) rest
    | line :: rest when is_bullet line ->
        let rec collect items = function
          | l :: rest when is_bullet l -> collect (bullet_text l :: items) rest
          | rest -> (List.rev items, rest)
        in
        let items, rest = collect [ bullet_text line ] rest in
        blocks (Bullets items :: acc) rest
    | line :: rest ->
        (* A paragraph: subsequent ordinary lines join with spaces. *)
        let stops l =
          l = "" || l = "[[code]]" || heading_level l > 0 || is_bullet l
        in
        let rec collect para = function
          | l :: rest when not (stops l) -> collect (l :: para) rest
          | rest -> (List.rev para, rest)
        in
        let para, rest = collect [ line ] rest in
        let text = match para with [ l ] -> l | _ -> String.concat " " para in
        blocks (Para (parse_inlines text) :: acc) rest
  in
  blocks [] lines

let equal (a : doc) b = a = b

let pp_inline ppf = function
  | Text s -> Fmt.pf ppf "Text %S" s
  | Bold s -> Fmt.pf ppf "Bold %S" s
  | Italic s -> Fmt.pf ppf "Italic %S" s
  | Code s -> Fmt.pf ppf "Code %S" s
  | Link { target; label } -> Fmt.pf ppf "Link (%S, %S)" target label

let pp_block ppf = function
  | Heading (l, t) -> Fmt.pf ppf "Heading %d %S" l t
  | Para inlines ->
      Fmt.pf ppf "Para [%a]" (Fmt.list ~sep:Fmt.semi pp_inline) inlines
  | Bullets items ->
      Fmt.pf ppf "Bullets [%a]" (Fmt.list ~sep:Fmt.semi (Fmt.fmt "%S")) items
  | Code_block lines -> Fmt.pf ppf "Code_block (%d lines)" (List.length lines)

let pp ppf doc = Fmt.pf ppf "@[<v>%a@]" (Fmt.list ~sep:Fmt.cut pp_block) doc

(* --- Markdown export ------------------------------------------------- *)

let markdown_inline = function
  | Text s -> s
  | Bold s -> "**" ^ s ^ "**"
  | Italic s -> "*" ^ s ^ "*"
  | Code s -> "`" ^ s ^ "`"
  | Link { target; label } -> "[" ^ label ^ "](" ^ target ^ ")"

let markdown_block = function
  | Heading (level, text) -> String.make (max 1 level) '#' ^ " " ^ text
  | Para inlines -> String.concat "" (List.map markdown_inline inlines)
  | Bullets items -> String.concat "\n" (List.map (fun i -> "- " ^ i) items)
  | Code_block lines -> String.concat "\n" (("```" :: lines) @ [ "```" ])

let to_markdown doc =
  match doc with
  | [] -> ""
  | _ -> String.concat "\n\n" (List.map markdown_block doc) ^ "\n"

(* --- HTML export ------------------------------------------------------ *)

let html_escape s =
  let buf = Buffer.create (String.length s + 16) in
  add_escaped buf s;
  Buffer.contents buf

let add_html_inline buf = function
  | Text s -> add_escaped buf s
  | Bold s -> wrap add_escaped buf "<strong>" s "</strong>"
  | Italic s -> wrap add_escaped buf "<em>" s "</em>"
  | Code s -> wrap add_escaped buf "<code>" s "</code>"
  | Link { target; label } ->
      wrap add_escaped buf "<a href=\"" target "\">";
      wrap add_escaped buf "" label "</a>"

let heading_tags = Array.init 7 (fun l -> (Printf.sprintf "<h%d>" l, Printf.sprintf "</h%d>" l))

let add_html_block buf = function
  | Heading (level, text) ->
      let o, c = heading_tags.(min 6 (max 1 level)) in
      wrap add_escaped buf o text c
  | Para inlines ->
      Buffer.add_string buf "<p>";
      List.iter (add_html_inline buf) inlines;
      Buffer.add_string buf "</p>"
  | Bullets items ->
      Buffer.add_string buf "<ul>";
      List.iter (fun i -> wrap add_escaped buf "<li>" i "</li>") items;
      Buffer.add_string buf "</ul>"
  | Code_block lines ->
      Buffer.add_string buf "<pre><code>";
      add_sep buf "\n" (add_escaped buf) lines;
      Buffer.add_string buf "</code></pre>"

let to_html doc =
  let buf = Buffer.create 1024 in
  add_sep buf "\n" (add_html_block buf) doc;
  Buffer.contents buf
