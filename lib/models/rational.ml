type t = { num : int; den : int }

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let make num den =
  if den = 0 then raise Division_by_zero;
  let sign = if den < 0 then -1 else 1 in
  let num = sign * num and den = sign * den in
  let g = gcd (abs num) den in
  if g = 0 then { num = 0; den = 1 } else { num = num / g; den = den / g }

let of_int n = { num = n; den = 1 }
let zero = of_int 0
let one = of_int 1
let num r = r.num
let den r = r.den
let add a b = make ((a.num * b.den) + (b.num * a.den)) (a.den * b.den)
let sub a b = make ((a.num * b.den) - (b.num * a.den)) (a.den * b.den)
let mul a b = make (a.num * b.num) (a.den * b.den)
let div a b = if b.num = 0 then raise Division_by_zero else make (a.num * b.den) (a.den * b.num)
let equal a b = a.num = b.num && a.den = b.den
let compare a b = Stdlib.compare (a.num * b.den) (b.num * a.den)
let to_float a = float_of_int a.num /. float_of_int a.den

let pp ppf a =
  if a.den = 1 then Fmt.int ppf a.num else Fmt.pf ppf "%d/%d" a.num a.den

let to_string a = Fmt.str "%a" pp a
