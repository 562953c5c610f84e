type attr_type = String_t | Integer_t | Boolean_t

type attribute = { attr_name : string; attr_type : attr_type; is_key : bool }
type clazz = { class_name : string; persistent : bool; attributes : attribute list }
type model = clazz list

let attribute ?(is_key = false) attr_name attr_type = { attr_name; attr_type; is_key }
let clazz ?(persistent = true) class_name attributes = { class_name; persistent; attributes }

let find_class model name =
  List.find_opt (fun c -> String.equal c.class_name name) model

let remove_class model name =
  List.filter (fun c -> not (String.equal c.class_name name)) model

let class_names model =
  List.sort String.compare (List.map (fun c -> c.class_name) model)

let persistent_classes model = List.filter (fun c -> c.persistent) model

let rec unique = function
  | [] | [ _ ] -> true
  | x :: (y :: _ as rest) -> x <> y && unique rest

let validate model =
  let names = List.map (fun c -> c.class_name) model in
  if List.exists (fun n -> String.length n = 0) names then
    Error "model: empty class name"
  else if not (unique (List.sort String.compare names)) then
    Error "model: duplicate class name"
  else
    let bad =
      List.find_opt
        (fun c ->
          c.attributes = []
          || not
               (unique
                  (List.sort String.compare
                     (List.map (fun a -> a.attr_name) c.attributes))))
        model
    in
    match bad with
    | Some c ->
        Error
          (Printf.sprintf
             "model: class %s has no attributes or duplicate attributes"
             c.class_name)
    | None -> Ok ()

let equal m1 m2 =
  let sort m = List.sort (fun a b -> String.compare a.class_name b.class_name) m in
  sort m1 = sort m2

let pp_attr_type ppf = function
  | String_t -> Fmt.string ppf "String"
  | Integer_t -> Fmt.string ppf "Integer"
  | Boolean_t -> Fmt.string ppf "Boolean"

let pp_attribute ppf a =
  Fmt.pf ppf "%s%s : %a" a.attr_name (if a.is_key then " {key}" else "")
    pp_attr_type a.attr_type

let pp_clazz ppf c =
  Fmt.pf ppf "@[<v 2>%sclass %s {@,%a@]@,}"
    (if c.persistent then "persistent " else "")
    c.class_name
    (Fmt.list ~sep:Fmt.cut pp_attribute)
    c.attributes

let pp ppf m = Fmt.pf ppf "@[<v>%a@]" (Fmt.list ~sep:Fmt.cut pp_clazz) m
