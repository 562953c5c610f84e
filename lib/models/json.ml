type t =
  | Null
  | Bool of bool
  | Int of int
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- printing ------------------------------------------------------- *)

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 32 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let to_string ?(indent = 0) json =
  let buf = Buffer.create 256 in
  let pad level =
    if indent > 0 then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (level * indent) ' ')
    end
  in
  let rec go level = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int n -> Buffer.add_string buf (string_of_int n)
    | String s -> Buffer.add_string buf (escape_string s)
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            pad (level + 1);
            go (level + 1) item)
          items;
        pad level;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            pad (level + 1);
            Buffer.add_string buf (escape_string k);
            Buffer.add_string buf (if indent > 0 then ": " else ":");
            go (level + 1) v)
          fields;
        pad level;
        Buffer.add_char buf '}'
  in
  go 0 json;
  Buffer.contents buf

(* --- parsing -------------------------------------------------------- *)

exception Fail of string

type state = { input : string; mutable pos : int }

let fail st fmt =
  Printf.ksprintf (fun m -> raise (Fail (Printf.sprintf "at %d: %s" st.pos m))) fmt

let peek st =
  if st.pos < String.length st.input then Some st.input.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | _ -> fail st "expected %c" c

let literal st word value =
  String.iter (fun c -> expect st c) word;
  value

let parse_string_body st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
        advance st;
        match peek st with
        | Some '"' -> advance st; Buffer.add_char buf '"'; go ()
        | Some '\\' -> advance st; Buffer.add_char buf '\\'; go ()
        | Some '/' -> advance st; Buffer.add_char buf '/'; go ()
        | Some 'n' -> advance st; Buffer.add_char buf '\n'; go ()
        | Some 'r' -> advance st; Buffer.add_char buf '\r'; go ()
        | Some 't' -> advance st; Buffer.add_char buf '\t'; go ()
        | Some 'b' -> advance st; Buffer.add_char buf '\b'; go ()
        | Some 'u' ->
            advance st;
            let hex =
              if st.pos + 4 <= String.length st.input then (
                let h = String.sub st.input st.pos 4 in
                st.pos <- st.pos + 4;
                h)
              else fail st "truncated \\u escape"
            in
            (match int_of_string_opt ("0x" ^ hex) with
            | Some code when code < 256 -> Buffer.add_char buf (Char.chr code)
            | Some _ -> fail st "\\u escape above 00ff unsupported"
            | None -> fail st "bad \\u escape %s" hex);
            go ()
        | _ -> fail st "bad escape")
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_int st =
  let start = st.pos in
  if peek st = Some '-' then advance st;
  let rec digits () =
    match peek st with
    | Some ('0' .. '9') -> advance st; digits ()
    | _ -> ()
  in
  digits ();
  if st.pos = start then fail st "expected a number";
  match int_of_string_opt (String.sub st.input start (st.pos - start)) with
  | Some n -> n
  | None -> fail st "bad number"

let rec parse_value st =
  skip_ws st;
  match peek st with
  | Some 'n' -> literal st "null" Null
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some '"' -> String (parse_string_body st)
  | Some '[' ->
      advance st;
      skip_ws st;
      if peek st = Some ']' then (advance st; List [])
      else
        let rec items acc =
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' -> advance st; items (v :: acc)
          | Some ']' -> advance st; List.rev (v :: acc)
          | _ -> fail st "expected , or ] in array"
        in
        List (items [])
  | Some '{' ->
      advance st;
      skip_ws st;
      if peek st = Some '}' then (advance st; Obj [])
      else
        let rec fields acc =
          skip_ws st;
          let k = parse_string_body st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' -> advance st; fields ((k, v) :: acc)
          | Some '}' -> advance st; List.rev ((k, v) :: acc)
          | _ -> fail st "expected , or } in object"
        in
        Obj (fields [])
  | Some ('-' | '0' .. '9') -> Int (parse_int st)
  | _ -> fail st "unexpected input"

let of_string input =
  let st = { input; pos = 0 } in
  try
    let v = parse_value st in
    skip_ws st;
    if st.pos < String.length input then
      Error (Printf.sprintf "at %d: trailing input" st.pos)
    else Ok v
  with Fail m -> Error m

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_list = function List l -> Some l | _ -> None
let to_str = function String s -> Some s | _ -> None
let to_int = function Int n -> Some n | _ -> None
let equal (a : t) b = a = b
