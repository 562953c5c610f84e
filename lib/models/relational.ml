type col_type = Int_t | Text_t | Bool_t

type column = { col_name : string; col_type : col_type; primary : bool }
type table = { table_name : string; columns : column list }
type schema = table list
type value = Int_v of int | Text_v of string | Bool_v of bool
type row = value list
type instance = (string * row list) list

let column ?(primary = false) col_name col_type = { col_name; col_type; primary }
let table table_name columns = { table_name; columns }

let find_table schema name =
  List.find_opt (fun t -> String.equal t.table_name name) schema

let remove_table schema name =
  List.filter (fun t -> not (String.equal t.table_name name)) schema

let add_table schema t = remove_table schema t.table_name @ [ t ]

let table_names schema =
  List.sort String.compare (List.map (fun t -> t.table_name) schema)

let rec unique = function
  | [] | [ _ ] -> true
  | x :: (y :: _ as rest) -> x <> y && unique rest

let validate_schema schema =
  let names = List.map (fun t -> t.table_name) schema in
  if List.exists (fun n -> String.length n = 0) names then
    Error "schema: empty table name"
  else if not (unique (List.sort String.compare names)) then
    Error "schema: duplicate table name"
  else
    let bad_table =
      List.find_opt
        (fun t ->
          t.columns = []
          || not
               (unique
                  (List.sort String.compare
                     (List.map (fun c -> c.col_name) t.columns))))
        schema
    in
    match bad_table with
    | Some t ->
        Error
          (Printf.sprintf "schema: table %s has no columns or duplicate columns"
             t.table_name)
    | None -> Ok ()

let sort_tables schema =
  List.sort (fun a b -> String.compare a.table_name b.table_name) schema

let equal_schema s1 s2 = sort_tables s1 = sort_tables s2

let pp_col_type ppf = function
  | Int_t -> Fmt.string ppf "INT"
  | Text_t -> Fmt.string ppf "TEXT"
  | Bool_t -> Fmt.string ppf "BOOL"

let pp_column ppf c =
  Fmt.pf ppf "%s %a%s" c.col_name pp_col_type c.col_type
    (if c.primary then " PRIMARY" else "")

let pp_table ppf t =
  Fmt.pf ppf "@[<v 2>TABLE %s (@,%a@]@,)" t.table_name
    (Fmt.list ~sep:Fmt.comma pp_column)
    t.columns

let pp_schema ppf s = Fmt.pf ppf "@[<v>%a@]" (Fmt.list ~sep:Fmt.cut pp_table) s

let type_of_value = function
  | Int_v _ -> Int_t
  | Text_v _ -> Text_t
  | Bool_v _ -> Bool_t

let conforms schema instance =
  let check_table (name, rows) =
    match find_table schema name with
    | None -> Error (Printf.sprintf "instance: unknown table %s" name)
    | Some t ->
        let arity = List.length t.columns in
        let bad_row =
          List.find_opt
            (fun row ->
              List.length row <> arity
              || not
                   (List.for_all2
                      (fun v c -> type_of_value v = c.col_type)
                      row t.columns))
            rows
        in
        if bad_row <> None then
          Error (Printf.sprintf "instance: ill-typed row in table %s" name)
        else
          let key_of row =
            List.filteri
              (fun i _ -> (List.nth t.columns i).primary)
              row
          in
          let keys = List.map key_of rows in
          let has_key = List.exists (fun c -> c.primary) t.columns in
          if has_key && not (unique (List.sort compare keys)) then
            Error
              (Printf.sprintf "instance: duplicate primary key in table %s" name)
          else Ok ()
  in
  List.fold_left
    (fun acc t -> match acc with Error _ -> acc | Ok () -> check_table t)
    (Ok ()) instance

let pp_value ppf = function
  | Int_v n -> Fmt.int ppf n
  | Text_v s -> Fmt.pf ppf "%S" s
  | Bool_v b -> Fmt.bool ppf b

let equal_instance i1 i2 =
  let canon i =
    List.map (fun (n, rows) -> (n, List.sort compare rows)) i
    |> List.sort compare
  in
  canon i1 = canon i2
