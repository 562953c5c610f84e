type path = int list

type 'a op =
  | Relabel of path * 'a
  | Insert_child of path * int * 'a Tree.t
  | Delete_child of path * int

type 'a edit = 'a op list

(* Apply a function at the node addressed by a path. *)
let rec at_path path f (t : 'a Tree.t) =
  match path with
  | [] -> f t
  | i :: rest ->
      if i < 0 || i >= List.length t.Tree.children then None
      else
        let child = List.nth t.Tree.children i in
        Option.map
          (fun child' ->
            Tree.with_children t
              (List.mapi
                 (fun j c -> if j = i then child' else c)
                 t.Tree.children))
          (at_path rest f child)

let apply_op op t =
  match op with
  | Relabel (path, label) ->
      at_path path (fun node -> Some { node with Tree.label }) t
  | Insert_child (path, i, subtree) ->
      at_path path
        (fun node ->
          let n = List.length node.Tree.children in
          if i < 0 || i > n then None
          else
            let rec ins i cs =
              if i = 0 then subtree :: cs
              else match cs with [] -> [ subtree ] | c :: tl -> c :: ins (i - 1) tl
            in
            Some (Tree.with_children node (ins i node.Tree.children)))
        t
  | Delete_child (path, i) ->
      at_path path
        (fun node ->
          if i < 0 || i >= List.length node.Tree.children then None
          else
            Some
              (Tree.with_children node
                 (List.filteri (fun j _ -> j <> i) node.Tree.children)))
        t

let apply edit t =
  List.fold_left
    (fun acc op -> match acc with None -> None | Some t -> apply_op op t)
    (Some t) edit

let edit_module () =
  {
    Bx.Elens.module_name = "tree-edits";
    apply;
    compose = (fun e1 e2 -> e1 @ e2);
    identity = [];
  }

let rec diff ~equal (t1 : 'a Tree.t) (t2 : 'a Tree.t) = diff_at ~equal [] t1 t2

and diff_at ~equal path t1 t2 =
  let relabel =
    if equal t1.Tree.label t2.Tree.label then []
    else [ Relabel (path, t2.Tree.label) ]
  in
  let a = Array.of_list t1.Tree.children in
  let b = Array.of_list t2.Tree.children in
  let anchors =
    Bx.Lens.lcs_pairs
      ~eq:(fun i j -> equal a.(i).Tree.label b.(j).Tree.label)
      (Array.length a) (Array.length b)
    @ [ (Array.length a, Array.length b) ] (* sentinel *)
  in
  (* Between consecutive anchors, pair leftover old and new children in
     order ("replacements", edited in place via recursion); extra olds
     are deleted, extra news inserted.  This keeps changed children as
     in-place edits instead of delete+insert pairs. *)
  let pairs = ref [] (* (old index, new index), both kept *) in
  let deletions = ref [] and insertions = ref [] in
  let prev_i = ref 0 and prev_j = ref 0 in
  List.iter
    (fun (ai, aj) ->
      let olds = List.init (ai - !prev_i) (fun k -> !prev_i + k) in
      let news = List.init (aj - !prev_j) (fun k -> !prev_j + k) in
      let rec zip olds news =
        match (olds, news) with
        | i :: olds', j :: news' ->
            pairs := (i, j) :: !pairs;
            zip olds' news'
        | olds', [] -> List.iter (fun i -> deletions := i :: !deletions) olds'
        | [], news' -> List.iter (fun j -> insertions := j :: !insertions) news'
      in
      zip olds news;
      if ai < Array.length a then pairs := (ai, aj) :: !pairs;
      prev_i := ai + 1;
      prev_j := aj + 1)
    anchors;
  (* Deletions highest original index first, so earlier deletions do not
     shift later targets; insertions at their final indices, ascending. *)
  let delete_ops =
    List.sort (fun x y -> compare y x) !deletions
    |> List.map (fun i -> Delete_child (path, i))
  in
  let insert_ops =
    List.sort compare !insertions
    |> List.map (fun j -> Insert_child (path, j, b.(j)))
  in
  (* Kept children (anchors and replacements) now sit at their target
     indices; recurse on each. *)
  let recursions =
    List.concat_map
      (fun (i, j) -> diff_at ~equal (path @ [ j ]) a.(i) b.(j))
      (List.rev !pairs)
  in
  relabel @ delete_ops @ insert_ops @ recursions

let edit_size = List.length
